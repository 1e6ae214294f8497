//! A small blocking client for the line-JSON query protocol.
//!
//! Requests are pipelined: [`Client::run`] writes every request line, then
//! reads exactly one response line per request and matches answers back to
//! requests by id. A server answers a connection in request order, except
//! that the error reply to a malformed or invalid line is written at once
//! and can overtake queries sent before it (see [`crate::proto`]).

use crate::proto::{self, Mutation, Op, Query, Response};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What went wrong talking to the server.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or closed mid-exchange.
    Io(std::io::Error),
    /// The server sent something the protocol does not allow.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a [`QueryServer`](crate::QueryServer).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: i128,
    trace: Option<u64>,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One-line requests and responses: Nagle + delayed ACK would add
        // ~40 ms to every closed-loop round trip.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            trace: None,
        })
    }

    /// Tags every subsequent request with trace id `trace` (see the
    /// `trace` protocol field in [`crate::proto`]): a tracing-enabled
    /// server records the request's spans under that id, an old or
    /// tracing-off server ignores it. `None` stops tagging.
    pub fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace;
    }

    /// Point query at `pos`.
    pub fn point(&mut self, pos: &[usize]) -> Result<f64, ClientError> {
        self.one(Query::Point { pos: pos.to_vec() })
    }

    /// Inclusive range sum over `[lo, hi]`.
    pub fn range_sum(&mut self, lo: &[usize], hi: &[usize]) -> Result<f64, ClientError> {
        self.one(Query::RangeSum {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        })
    }

    /// Buffers a box of deltas on a writable server: `at` is the lower
    /// corner, `dims` the per-axis extents, `data` the box in row-major
    /// order. Returns the number of coefficient deltas buffered. The
    /// deltas stay invisible to queries until [`commit`](Client::commit).
    pub fn update(
        &mut self,
        at: &[usize],
        dims: &[usize],
        data: &[f64],
    ) -> Result<f64, ClientError> {
        self.one_op(Op::Mutation(Mutation::Update {
            at: at.to_vec(),
            dims: dims.to_vec(),
            data: data.to_vec(),
        }))
    }

    /// Group-commits every buffered update as the next epoch on a
    /// writable server; returns the published epoch. Queries issued after
    /// this returns see the committed data (read-your-writes).
    pub fn commit(&mut self) -> Result<f64, ClientError> {
        self.one_op(Op::Mutation(Mutation::Commit))
    }

    fn one(&mut self, q: Query) -> Result<f64, ClientError> {
        self.one_op(Op::Query(q))
    }

    fn one_op(&mut self, op: Op) -> Result<f64, ClientError> {
        let mut answers = self.run_ops(&[op])?;
        answers
            .pop()
            .expect("one answer per operation")
            .map_err(|(kind, msg)| ClientError::Protocol(format!("server error {kind}: {msg}")))
    }

    /// Pipelines `queries` and returns one result per query, in request
    /// order. Per-query server errors come back as `Err((kind, message))`
    /// without failing the whole exchange.
    #[allow(clippy::type_complexity)]
    pub fn run(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<Result<f64, (String, String)>>, ClientError> {
        let ops: Vec<Op> = queries.iter().cloned().map(Op::Query).collect();
        self.run_ops(&ops)
    }

    /// Pipelines arbitrary operations (queries and mutations) and returns
    /// one result per operation, in request order. Every request carries
    /// the client's trace id. The server replies in request order except
    /// for error replies to malformed or invalid lines, which can overtake
    /// queries sent before them; results are matched back by id here.
    #[allow(clippy::type_complexity)]
    pub fn run_ops(
        &mut self,
        ops: &[Op],
    ) -> Result<Vec<Result<f64, (String, String)>>, ClientError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let (first_id, count) = (self.next_id, ops.len());
        let mut lines = String::new();
        for (k, op) in ops.iter().enumerate() {
            proto::write_op(&mut lines, first_id + k as i128, op, self.trace);
            lines.push('\n');
        }
        self.next_id += count as i128;
        self.writer.write_all(lines.as_bytes())?;
        self.writer.flush()?;

        let mut by_id: HashMap<i128, Response> = HashMap::with_capacity(count);
        let mut line = String::new();
        while by_id.len() < count {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(format!(
                    "server closed after {} of {} answers",
                    by_id.len(),
                    count
                )));
            }
            let resp = proto::parse_response(line.trim_end()).map_err(ClientError::Protocol)?;
            let id = resp
                .id
                .ok_or_else(|| ClientError::Protocol("response without id".into()))?;
            if id < first_id || id >= first_id + count as i128 {
                return Err(ClientError::Protocol(format!(
                    "unexpected response id {id}"
                )));
            }
            by_id.insert(id, resp);
        }
        Ok((0..count)
            .map(|k| {
                by_id
                    .remove(&(first_id + k as i128))
                    .expect("all ids seen")
                    .result
            })
            .collect())
    }
}
