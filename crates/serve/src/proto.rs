//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both UTF-8 JSON objects.
//! Requests:
//!
//! ```json
//! {"id": 7, "op": "point", "pos": [3, 9]}
//! {"id": 8, "op": "range_sum", "lo": [0, 0], "hi": [7, 7]}
//! ```
//!
//! `id` is optional; when present it is echoed verbatim in the response.
//! Replies on a connection come back in request order, with one exception:
//! the error reply to a malformed or invalid line is written at once, so
//! it can overtake queries read before it that are still being collected
//! into the connection's burst. Pipelined clients therefore match replies
//! by id. Responses:
//!
//! ```json
//! {"id": 7, "ok": true, "value": 12.5}
//! {"id": 8, "ok": false, "error": "bad_request", "message": "..."}
//! ```
//!
//! `value` uses the exact shortest-roundtrip `f64` formatting of
//! [`ss_obs::json`], so the served answer equals the serial in-process
//! answer bit for bit.
//!
//! Lines are appended straight into the caller's buffer (`write_query`,
//! [`write_op`], [`write_ok_response`]) through `ss_obs::json`'s scalar
//! writers; no JSON tree is built to render one. The bytes are the
//! contract: the test module keeps the tree renderer they replaced as the
//! oracle they must equal. Reading a line is the one [`json::parse`].
//!
//! A **writable** server additionally accepts mutations:
//!
//! ```json
//! {"id": 9, "op": "update", "at": [2, 4], "dims": [2, 2], "data": [1.0, 0.0, 0.5, -1.0]}
//! {"id": 10, "op": "commit"}
//! ```
//!
//! `update` buffers one box of data-domain deltas (`data` is the box in
//! row-major order, `dims` its per-axis extents, `at` its lower corner);
//! its `value` answers with the number of coefficient deltas buffered.
//! `commit` group-commits everything buffered so far as the next epoch
//! and answers with the published epoch number. Buffered-but-uncommitted
//! updates are invisible to queries; from the commit response onward
//! every new query sees them (read-your-writes at epoch granularity).
//!
//! # Per-tile partial sums (`partial`)
//!
//! Any server also evaluates a raw contribution list:
//!
//! ```json
//! {"id": 11, "op": "partial", "terms": [[[3, 9], 0.25], [[0, 1], -0.5]]}
//! ```
//!
//! Each term is an `[index, weight]` pair, every index of the first one's
//! rank; the list is parsed straight into one flat [`Contributions`], and
//! an empty list answers `0` with no tiles. The answer carries the
//! weighted sum **plus** its per-tile decomposition in the canonical
//! accumulation order (see `ss_query::execute_plans_tiled`): the value is
//! the fold of the tile partials in ascending tile order.
//!
//! ```json
//! {"id": 11, "ok": true, "value": 3.25, "tiles": [[0, -0.5], [6, 3.75]]}
//! ```
//!
//! Error kinds are closed: `parse` (not a JSON object), `unknown_op`
//! (unrecognised `op`; the message echoes at most its first 64
//! characters), `bad_request` (wrong arity or out-of-range coordinates),
//! `read_only` (mutation sent to a read-only server), `io` (a commit
//! failed to reach the write-ahead log), `too_large` (a line longer than
//! [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES); answered with no
//! id, after which the server closes the connection).
//!
//! # Tracing (`trace` field)
//!
//! Any request may carry an **optional** `trace` field — a positive
//! integer trace id:
//!
//! ```json
//! {"id": 7, "op": "point", "pos": [3, 9], "trace": 401}
//! ```
//!
//! A tracing-enabled server records the request's spans and tile
//! fetches under that id (see `ss_obs::trace`) and echoes `trace` in
//! the success response. The field is **optional and
//! ignored-by-old-servers**: servers predating it (and servers with
//! tracing off) simply don't inspect unknown fields, so old and new
//! clients interoperate freely; anything other than a positive integer
//! is treated as absent rather than rejected, for the same reason.

use ss_core::reconstruct::{self, Contributions};
use ss_obs::json::{self, Value};

/// A validated query, ready for planning.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Point lookup at `pos`.
    Point {
        /// Coordinates, one per axis.
        pos: Vec<usize>,
    },
    /// Inclusive range sum over the box `[lo, hi]`.
    RangeSum {
        /// Lower corner, one coordinate per axis.
        lo: Vec<usize>,
        /// Upper corner, inclusive.
        hi: Vec<usize>,
    },
    /// A raw contribution list. The success response carries the
    /// per-tile partial decomposition (see the module docs).
    Partial {
        /// The plan to evaluate, in the canonical per-tile-decomposed
        /// order.
        plan: Contributions,
    },
}

impl Query {
    /// The request's `op` string.
    pub fn op(&self) -> &'static str {
        match self {
            Query::Point { .. } => "point",
            Query::RangeSum { .. } => "range_sum",
            Query::Partial { .. } => "partial",
        }
    }

    /// Checks arity and bounds against the served domain `dims`.
    pub fn validate(&self, dims: &[usize]) -> Result<(), String> {
        // `name` is only rendered into an error: a valid request (a
        // `partial` can have hundreds of terms) formats and allocates nothing.
        let check = |name: std::fmt::Arguments<'_>, v: &[usize]| -> Result<(), String> {
            if v.len() != dims.len() {
                return Err(format!(
                    "{name} has {} axes, domain has {}",
                    v.len(),
                    dims.len()
                ));
            }
            for (t, (&x, &d)) in v.iter().zip(dims).enumerate() {
                if x >= d {
                    return Err(format!("{name}[{t}] = {x} out of range (axis size {d})"));
                }
            }
            Ok(())
        };
        match self {
            Query::Point { pos } => check(format_args!("pos"), pos),
            Query::RangeSum { lo, hi } => {
                check(format_args!("lo"), lo)?;
                check(format_args!("hi"), hi)?;
                for (t, (&l, &h)) in lo.iter().zip(hi).enumerate() {
                    if l > h {
                        return Err(format!("lo[{t}] = {l} exceeds hi[{t}] = {h}"));
                    }
                }
                Ok(())
            }
            Query::Partial { plan } => {
                let (mut k, mut first_error) = (0, Ok(()));
                plan.for_each_term(|idx, _| {
                    if first_error.is_ok() {
                        first_error = check(format_args!("terms[{k}]"), idx);
                    }
                    k += 1;
                });
                first_error
            }
        }
    }

    /// The Lemma 1 / Lemma 2 contribution-list plan for a standard-form
    /// store with per-axis levels `n`. A `partial` sub-plan *is* its own
    /// contribution list.
    pub fn plan(&self, n: &[u32]) -> Contributions {
        match self {
            Query::Point { pos } => reconstruct::standard_point_contributions(n, pos),
            Query::RangeSum { lo, hi } => reconstruct::standard_range_sum_contributions(n, lo, hi),
            Query::Partial { plan } => plan.clone(),
        }
    }

    /// Whether the success response must carry the per-tile partial
    /// decomposition (`partial` sub-plans only).
    pub fn wants_tiles(&self) -> bool {
        matches!(self, Query::Partial { .. })
    }
}

/// A mutation accepted by a writable server.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Buffer one box of data-domain deltas.
    Update {
        /// Lower corner of the box, one coordinate per axis.
        at: Vec<usize>,
        /// Per-axis extents of the box.
        dims: Vec<usize>,
        /// Row-major box contents (`dims` product values).
        data: Vec<f64>,
    },
    /// Group-commit everything buffered so far as the next epoch.
    Commit,
}

impl Mutation {
    /// Checks arity, bounds and data length against the domain `dims`.
    pub fn validate(&self, domain: &[usize]) -> Result<(), String> {
        match self {
            Mutation::Commit => Ok(()),
            Mutation::Update { at, dims, data } => {
                if at.len() != domain.len() || dims.len() != domain.len() {
                    return Err(format!(
                        "at/dims have {}/{} axes, domain has {}",
                        at.len(),
                        dims.len(),
                        domain.len()
                    ));
                }
                let mut cells = 1usize;
                for (t, ((&o, &e), &d)) in at.iter().zip(dims).zip(domain).enumerate() {
                    if e == 0 {
                        return Err(format!("dims[{t}] must be at least 1"));
                    }
                    // `o + e` could wrap: a hostile `at` must not slip past.
                    if e > d || o > d - e {
                        return Err(format!(
                            "box at {o} of extent {e} exceeds axis {t} (size {d})"
                        ));
                    }
                    cells = cells.saturating_mul(e);
                }
                if data.len() != cells {
                    return Err(format!("data has {} values, box needs {cells}", data.len()));
                }
                Ok(())
            }
        }
    }
}

/// What a request line asks for: a read or a mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A read-only query (every server accepts these).
    Query(Query),
    /// A mutation (writable servers only).
    Mutation(Mutation),
}

/// A parsed request: optional client-chosen id plus the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response when present.
    pub id: Option<i128>,
    /// The requested operation.
    pub op: Op,
    /// Client-supplied trace id (positive; anything else parses as
    /// `None`). Echoed in the success response when honoured.
    pub trace: Option<u64>,
}

/// Why a request line was rejected, with the id (when one could still be
/// extracted) to address the error response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// The request id, when the line parsed far enough to reveal one.
    pub id: Option<i128>,
    /// Closed error vocabulary: `parse`, `unknown_op`, or `bad_request`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn new(id: Option<i128>, kind: &'static str, message: impl Into<String>) -> Self {
        RequestError {
            id,
            kind,
            message: message.into(),
        }
    }
}

fn as_usize(v: &Value) -> Option<usize> {
    match v {
        Value::Int(i) => usize::try_from(*i).ok(),
        _ => None,
    }
}

fn usize_array(v: &Value, name: &str) -> Result<Vec<usize>, String> {
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{name} must be an array"))?;
    arr.iter()
        .map(as_usize)
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| format!("{name} must contain non-negative integers"))
}

fn f64_array(v: &Value, name: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{name} must be an array"))?;
    arr.iter()
        .map(|e| e.as_f64().ok_or(()))
        .collect::<Result<Vec<f64>, ()>>()
        .map_err(|()| format!("{name} must contain numbers"))
}

/// `terms`: an array of `[index_array, weight]` pairs, parsed straight
/// into one flat plan. The first term fixes the rank; a term of another
/// rank is refused here, before it could shift every later coordinate.
fn terms_array(v: &Value) -> Result<Contributions, String> {
    let arr = v.as_array().ok_or("terms must be an array")?;
    // No term, no rank: an empty plan of any rank answers 0.
    let mut plan = Contributions::with_capacity(1, 0);
    let mut rank = 0;
    let mut idx = Vec::new();
    for (k, term) in arr.iter().enumerate() {
        let Some([raw, w]) = term.as_array() else {
            return Err(format!("terms[{k}] must be an [index, weight] pair"));
        };
        let bad = || format!("terms[{k}] index must be an array of non-negative integers");
        idx.clear();
        for x in raw.as_array().ok_or_else(bad)? {
            idx.push(as_usize(x).ok_or_else(bad)?);
        }
        let w = w
            .as_f64()
            .ok_or_else(|| format!("terms[{k}] weight must be a number"))?;
        if k == 0 {
            if idx.is_empty() {
                return Err("terms[0] index must have at least one axis".into());
            }
            rank = idx.len();
            // No reservation from `arr.len()`: later terms are unchecked,
            // and rank × len junk elements would size an abort, not an error.
            plan = Contributions::with_capacity(rank, 0);
        } else if idx.len() != rank {
            return Err(format!(
                "terms[{k}] index has {} axes, terms[0] has {rank}",
                idx.len()
            ));
        }
        plan.push(&idx, w);
    }
    Ok(plan)
}

/// The most characters of an unrecognised `op` an `unknown_op` message
/// echoes; a longer op is cut there, with `…` after the closing quote.
const OP_ECHO_CHARS: usize = 64;

/// Parses one request line. Validation against the domain happens
/// separately via [`Query::validate`].
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let v = json::parse(line)
        .map_err(|e| RequestError::new(None, "parse", format!("invalid JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(RequestError::new(
            None,
            "parse",
            "request must be an object",
        ));
    }
    let id = match v.get("id") {
        Some(Value::Int(i)) => Some(*i),
        Some(Value::Null) | None => None,
        Some(_) => {
            return Err(RequestError::new(None, "parse", "id must be an integer"));
        }
    };
    let op = match v.get("op").and_then(Value::as_str) {
        Some(op) => op,
        None => {
            return Err(RequestError::new(id, "parse", "missing string field op"));
        }
    };
    // Lenient by design (see the module docs): a malformed trace id
    // degrades to "untraced", it never fails the request.
    let trace = match v.get("trace") {
        Some(Value::Int(t)) if *t > 0 => u64::try_from(*t).ok(),
        _ => None,
    };
    let field = |name: &str| -> Result<Vec<usize>, RequestError> {
        let raw = v
            .get(name)
            .ok_or_else(|| RequestError::new(id, "bad_request", format!("missing field {name}")))?;
        usize_array(raw, name).map_err(|m| RequestError::new(id, "bad_request", m))
    };
    let op = match op {
        "point" => Op::Query(Query::Point { pos: field("pos")? }),
        "range_sum" => Op::Query(Query::RangeSum {
            lo: field("lo")?,
            hi: field("hi")?,
        }),
        "update" => {
            let raw = v
                .get("data")
                .ok_or_else(|| RequestError::new(id, "bad_request", "missing field data"))?;
            let data =
                f64_array(raw, "data").map_err(|m| RequestError::new(id, "bad_request", m))?;
            Op::Mutation(Mutation::Update {
                at: field("at")?,
                dims: field("dims")?,
                data,
            })
        }
        "partial" => {
            let raw = v
                .get("terms")
                .ok_or_else(|| RequestError::new(id, "bad_request", "missing field terms"))?;
            let plan = terms_array(raw).map_err(|m| RequestError::new(id, "bad_request", m))?;
            Op::Query(Query::Partial { plan })
        }
        "commit" => Op::Mutation(Mutation::Commit),
        other => {
            // The op is echoed, so a long one is cut: the reply stays
            // short however long the line was.
            let shown: String = other.chars().take(OP_ECHO_CHARS).collect();
            let cut = if shown.len() < other.len() { "…" } else { "" };
            return Err(RequestError::new(
                id,
                "unknown_op",
                format!(
                    "unknown op {shown:?}{cut} (expected point, range_sum, partial, \
                     update, or commit)"
                ),
            ));
        }
    };
    Ok(Request { id, op, trace })
}

/// Appends `,` before every array item but the first: what `out` ends
/// with is the array's `[` only before its first item.
fn comma(out: &mut String) {
    if !out.ends_with('[') {
        out.push(',');
    }
}

/// Appends `,"name":[x0,x1,…]`.
fn push_usizes(out: &mut String, name: &str, v: &[usize]) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    push_index(out, v);
}

/// Appends `[x0,x1,…]`.
fn push_index(out: &mut String, v: &[usize]) {
    out.push('[');
    for &x in v {
        comma(out);
        json::push_int(out, x as i128);
    }
    out.push(']');
}

/// Appends `{"id":ID,"op":"NAME"`, a request line's opening.
fn open_request(out: &mut String, id: i128, op: &str) {
    out.push_str("{\"id\":");
    json::push_int(out, id);
    out.push_str(",\"op\":\"");
    out.push_str(op);
    out.push('"');
}

/// Appends the optional `trace` field and the closing brace.
fn close_line(out: &mut String, trace: Option<u64>) {
    if let Some(t) = trace {
        out.push_str(",\"trace\":");
        json::push_int(out, t.into());
    }
    out.push('}');
}

/// Appends the request line for `query` with id `id`, carrying an
/// optional `trace` id (the client side; see the module docs).
fn write_query(out: &mut String, id: i128, query: &Query, trace: Option<u64>) {
    open_request(out, id, query.op());
    match query {
        Query::Point { pos } => push_usizes(out, "pos", pos),
        Query::RangeSum { lo, hi } => {
            push_usizes(out, "lo", lo);
            push_usizes(out, "hi", hi);
        }
        Query::Partial { plan } => {
            out.push_str(",\"terms\":[");
            plan.for_each_term(|idx, w| {
                comma(out);
                out.push('[');
                push_index(out, idx);
                out.push(',');
                json::push_f64(out, w);
                out.push(']');
            });
            out.push(']');
        }
    }
    close_line(out, trace);
}

/// Appends the request line for any operation with id `id` (the client
/// side).
pub fn write_op(out: &mut String, id: i128, op: &Op, trace: Option<u64>) {
    let m = match op {
        Op::Query(q) => return write_query(out, id, q, trace),
        Op::Mutation(m) => m,
    };
    match m {
        Mutation::Update { at, dims, data } => {
            open_request(out, id, "update");
            push_usizes(out, "at", at);
            push_usizes(out, "dims", dims);
            out.push_str(",\"data\":[");
            for &x in data {
                comma(out);
                json::push_f64(out, x);
            }
            out.push(']');
        }
        Mutation::Commit => open_request(out, id, "commit"),
    }
    close_line(out, trace);
}

/// Renders a request line for `query` with id `id` (the client side).
pub fn request_line(id: i128, query: &Query) -> String {
    let mut out = String::new();
    write_query(&mut out, id, query, None);
    out
}

/// Appends `{"id":ID,"ok":`, a response line's opening; a missing id is
/// `null`.
fn open_response(out: &mut String, id: Option<i128>, ok: bool) {
    out.push_str("{\"id\":");
    match id {
        Some(i) => json::push_int(out, i),
        None => out.push_str("null"),
    }
    out.push_str(if ok { ",\"ok\":true" } else { ",\"ok\":false" });
}

/// Appends a success response line echoing the honoured `trace` id and,
/// for a `partial` sub-plan, its per-tile partial decomposition.
pub fn write_ok_response(
    out: &mut String,
    id: Option<i128>,
    trace: Option<u64>,
    value: f64,
    tiles: Option<&[(usize, f64)]>,
) {
    open_response(out, id, true);
    out.push_str(",\"value\":");
    json::push_f64(out, value);
    if let Some(tiles) = tiles {
        out.push_str(",\"tiles\":[");
        for &(t, p) in tiles {
            comma(out);
            out.push('[');
            json::push_int(out, t as i128);
            out.push(',');
            json::push_f64(out, p);
            out.push(']');
        }
        out.push(']');
    }
    close_line(out, trace);
}

/// Renders a success response line (see [`write_ok_response`]).
pub fn ok_response_tiled(
    id: Option<i128>,
    trace: Option<u64>,
    value: f64,
    tiles: Option<&[(usize, f64)]>,
) -> String {
    let mut out = String::new();
    write_ok_response(&mut out, id, trace, value, tiles);
    out
}

/// Renders a typed error response line.
pub fn err_response(id: Option<i128>, kind: &str, message: &str) -> String {
    let mut out = String::new();
    open_response(&mut out, id, false);
    out.push_str(",\"error\":");
    json::escape_into(&mut out, kind);
    out.push_str(",\"message\":");
    json::escape_into(&mut out, message);
    out.push('}');
    out
}

/// A parsed response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The echoed request id.
    pub id: Option<i128>,
    /// The answer, or `(error kind, message)`.
    pub result: Result<f64, (String, String)>,
    /// Per-tile partial sums, present on `partial` sub-plan answers
    /// (ascending by tile ordinal).
    pub tiles: Option<Vec<(usize, f64)>>,
}

/// Parses one response line (the client side). A value or tile partial
/// must be finite: a server renders a non-finite one as `null`, so `1e999`
/// is junk, and would not survive a re-render either.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line).map_err(|e| format!("invalid response JSON: {e}"))?;
    let id = match v.get("id") {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    };
    let finite = |v: &Value| v.as_f64().filter(|x| x.is_finite());
    match v.get("ok") {
        Some(Value::Bool(true)) => {
            let value = v
                .get("value")
                .and_then(finite)
                .ok_or("ok response missing finite numeric value")?;
            let tiles = match v.get("tiles") {
                None => None,
                Some(raw) => {
                    let arr = raw.as_array().ok_or("tiles must be an array")?;
                    let mut tiles = Vec::with_capacity(arr.len());
                    for e in arr {
                        let pair = e
                            .as_array()
                            .filter(|p| p.len() == 2)
                            .ok_or("tiles entries must be [tile, partial] pairs")?;
                        let tile = match &pair[0] {
                            Value::Int(i) if *i >= 0 => {
                                usize::try_from(*i).map_err(|_| "tile out of range")?
                            }
                            _ => return Err("tile must be a non-negative integer".into()),
                        };
                        let partial = finite(&pair[1]).ok_or("tile partial must be finite")?;
                        tiles.push((tile, partial));
                    }
                    Some(tiles)
                }
            };
            Ok(Response {
                id,
                result: Ok(value),
                tiles,
            })
        }
        Some(Value::Bool(false)) => {
            let kind = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            let message = v
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            Ok(Response {
                id,
                result: Err((kind, message)),
                tiles: None,
            })
        }
        _ => Err("response missing boolean ok".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request line [`write_op`] appends for `op`, untraced.
    fn op_request_line(id: i128, op: &Op) -> String {
        let mut out = String::new();
        write_op(&mut out, id, op, None);
        out
    }

    #[test]
    fn request_round_trip() {
        for q in [
            Query::Point { pos: vec![3, 9] },
            Query::RangeSum {
                lo: vec![0, 0],
                hi: vec![7, 7],
            },
        ] {
            let line = request_line(42, &q);
            let back = parse_request(&line).unwrap();
            assert_eq!(back.id, Some(42));
            assert_eq!(back.op, Op::Query(q));
        }
    }

    #[test]
    fn mutation_round_trip() {
        for m in [
            Mutation::Update {
                at: vec![2, 4],
                dims: vec![2, 2],
                data: vec![1.0, 0.0, 0.5, -1.0],
            },
            Mutation::Commit,
        ] {
            let line = op_request_line(9, &Op::Mutation(m.clone()));
            let back = parse_request(&line).unwrap();
            assert_eq!(back.id, Some(9));
            assert_eq!(back.op, Op::Mutation(m));
        }
        // Integer-valued JSON data is accepted as f64.
        let back =
            parse_request(r#"{"id":1,"op":"update","at":[0],"dims":[2],"data":[1, 2.5]}"#).unwrap();
        assert_eq!(
            back.op,
            Op::Mutation(Mutation::Update {
                at: vec![0],
                dims: vec![2],
                data: vec![1.0, 2.5],
            })
        );
    }

    /// A rank-2 `partial` over `terms`.
    fn partial(terms: &[([usize; 2], f64)]) -> Query {
        let mut plan = Contributions::with_capacity(2, terms.len());
        for (idx, w) in terms {
            plan.push(idx, *w);
        }
        Query::Partial { plan }
    }

    /// The wire text is a contract between clients and servers of
    /// different builds: these are the exact bytes of the nested `terms`
    /// form this crate used to hold.
    #[test]
    fn partial_lines_are_byte_identical_to_the_nested_form() {
        let q = partial(&[([3, 9], 0.25), ([0, 1], -0.5), ([31, 2], 0.1 + 0.2)]);
        let line = request_line(11, &q);
        assert_eq!(
            line,
            r#"{"id":11,"op":"partial","terms":[[[3,9],0.25],[[0,1],-0.5],[[31,2],0.30000000000000004]]}"#
        );
        assert_eq!(parse_request(&line).unwrap().op, Op::Query(q));
    }

    #[test]
    fn partial_is_its_own_plan_and_wants_tiles() {
        let q = partial(&[([3, 9], 0.25), ([0, 1], -0.5)]);
        let mut terms = Vec::new();
        q.plan(&[6, 6])
            .for_each_term(|idx, w| terms.push((idx.to_vec(), w)));
        assert_eq!(terms, vec![(vec![3, 9], 0.25), (vec![0, 1], -0.5)]);
        assert!(q.wants_tiles());
        assert!(!Query::Point { pos: vec![1, 1] }.wants_tiles());
        assert!(q.validate(&[16, 16]).is_ok());
        assert!(q.validate(&[4, 4]).is_err(), "bounds");
        assert!(q.validate(&[16]).is_err(), "arity");
    }

    /// An empty term list is an empty plan: it answers 0 with no tiles.
    #[test]
    fn empty_partial_is_an_empty_plan() {
        let back = parse_request(r#"{"id":3,"op":"partial","terms":[]}"#).unwrap();
        let Op::Query(q) = back.op else {
            panic!("partial parsed as a mutation")
        };
        assert!(q.validate(&[16, 16]).is_ok());
        assert!(q.plan(&[4, 4]).is_empty());
    }

    /// The first term fixes the rank: a ragged list is refused at parse,
    /// before it could shift every later coordinate of the flat plan.
    #[test]
    fn ragged_or_rankless_partials_are_typed_parse_errors() {
        for (terms, message) in [
            (
                "[[[3,9],0.25],[[4],1.0]]",
                "terms[1] index has 1 axes, terms[0] has 2",
            ),
            (
                "[[[3],0.25],[[0,1,2],1.0]]",
                "terms[1] index has 3 axes, terms[0] has 1",
            ),
            ("[[[],0.25]]", "terms[0] index must have at least one axis"),
            (
                "[[[1,-2],0.25]]",
                "terms[0] index must be an array of non-negative integers",
            ),
            (
                "[[[1,2],0.25,1]]",
                "terms[0] must be an [index, weight] pair",
            ),
        ] {
            let line = format!(r#"{{"id":4,"op":"partial","terms":{terms}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert_eq!(
                (e.id, e.kind, e.message.as_str()),
                (Some(4), "bad_request", message)
            );
        }
    }

    #[test]
    fn partial_validation_names_the_offending_term() {
        let q = partial(&[([3, 9], 0.25), ([0, 99], -0.5), ([1, 1], 1.0)]);
        assert_eq!(
            q.validate(&[16, 16]).unwrap_err(),
            "terms[1][1] = 99 out of range (axis size 16)"
        );
        assert_eq!(
            q.validate(&[16, 128, 4]).unwrap_err(),
            "terms[0] has 2 axes, domain has 3"
        );
    }

    #[test]
    fn tiled_response_round_trip() {
        let tiles = vec![(0usize, -0.5), (6, 3.75)];
        let line = ok_response_tiled(Some(11), None, 3.25, Some(&tiles));
        let back = parse_response(&line).unwrap();
        assert_eq!(back.result, Ok(3.25));
        assert_eq!(back.tiles, Some(tiles));
        // Plain responses parse with no tiles.
        let back = parse_response(&ok_response_tiled(Some(1), None, 2.0, None)).unwrap();
        assert_eq!(back.tiles, None);
    }

    #[test]
    fn update_validation_checks_arity_bounds_and_data_length() {
        let domain = [8usize, 4];
        let upd = |at: &[usize], dims: &[usize], n: usize| Mutation::Update {
            at: at.to_vec(),
            dims: dims.to_vec(),
            data: vec![0.5; n],
        };
        assert!(upd(&[6, 2], &[2, 2], 4).validate(&domain).is_ok());
        assert!(upd(&[6], &[2, 2], 4).validate(&domain).is_err(), "arity");
        assert!(
            upd(&[7, 2], &[2, 2], 4).validate(&domain).is_err(),
            "bounds"
        );
        assert!(upd(&[0, 0], &[0, 2], 0).validate(&domain).is_err(), "empty");
        assert!(upd(&[0, 0], &[2, 2], 3).validate(&domain).is_err(), "data");
        assert!(
            upd(&[0, 0], &[9, 1], 9).validate(&domain).is_err(),
            "extent"
        );
        // `at + dims` wraps in a release build: still refused.
        assert_eq!(
            upd(&[usize::MAX, 0], &[2, 1], 2)
                .validate(&domain)
                .unwrap_err(),
            format!("box at {} of extent 2 exceeds axis 0 (size 8)", usize::MAX)
        );
        assert!(Mutation::Commit.validate(&domain).is_ok());
    }

    #[test]
    fn response_round_trip_is_exact_for_awkward_floats() {
        for v in [0.1 + 0.2, 1.0 / 3.0, -0.0, 1e-300, 12_345.678_901_234_5] {
            let line = ok_response_tiled(Some(7), None, v, None);
            let back = parse_response(&line).unwrap();
            assert_eq!(back.result, Ok(v), "{line}");
        }
    }

    #[test]
    fn trace_field_is_optional_lenient_and_echoed() {
        // Absent → untraced.
        let r = parse_request(r#"{"id":1,"op":"commit"}"#).unwrap();
        assert_eq!(r.trace, None);
        // A positive integer is honoured and round-trips.
        let mut line = String::new();
        write_op(
            &mut line,
            5,
            &Op::Query(Query::Point { pos: vec![1] }),
            Some(42),
        );
        let back = parse_request(&line).unwrap();
        assert_eq!(back.trace, Some(42));
        assert_eq!(back.id, Some(5));
        // Anything else degrades to untraced — never a request error
        // (old servers ignore the field; new ones must not be stricter).
        for junk in [r#""x""#, "0", "-3", "1.5", "[1]", "null", "true"] {
            let line = format!(r#"{{"id":1,"op":"commit","trace":{junk}}}"#);
            let r = parse_request(&line).unwrap_or_else(|e| panic!("{junk}: {e:?}", e = e));
            assert_eq!(r.trace, None, "trace={junk}");
        }
        // The success response echoes the honoured id.
        let resp = ok_response_tiled(Some(7), Some(42), 2.5, None);
        assert!(resp.contains(r#""trace":42"#), "{resp}");
        let back = parse_response(&resp).unwrap();
        assert_eq!(back.result, Ok(2.5));
    }

    #[test]
    fn parse_errors_are_typed() {
        assert_eq!(parse_request("not json").unwrap_err().kind, "parse");
        assert_eq!(parse_request("[1,2]").unwrap_err().kind, "parse");
        assert_eq!(
            parse_request(r#"{"id":1,"op":"bogus"}"#).unwrap_err().kind,
            "unknown_op"
        );
        // Raw coefficient ops (`apply`) are not an op of this protocol.
        let e = parse_request(r#"{"id":2,"op":"apply","ops":[[7,3,0.5]]}"#).unwrap_err();
        assert_eq!(
            (e.id, e.kind, e.message.as_str()),
            (
                Some(2),
                "unknown_op",
                r#"unknown op "apply" (expected point, range_sum, partial, update, or commit)"#
            )
        );
        let e = parse_request(r#"{"id":1,"op":"point"}"#).unwrap_err();
        assert_eq!((e.kind, e.id), ("bad_request", Some(1)));
        let e = parse_request(r#"{"op":"point","pos":[1,-2]}"#).unwrap_err();
        assert_eq!(e.kind, "bad_request");
    }

    #[test]
    fn validation_checks_arity_bounds_and_ordering() {
        let dims = [16usize, 8];
        assert!(Query::Point { pos: vec![15, 7] }.validate(&dims).is_ok());
        assert!(Query::Point { pos: vec![16, 0] }.validate(&dims).is_err());
        assert!(Query::Point { pos: vec![1] }.validate(&dims).is_err());
        assert!(Query::RangeSum {
            lo: vec![2, 3],
            hi: vec![1, 5]
        }
        .validate(&dims)
        .is_err());
        assert!(Query::RangeSum {
            lo: vec![2, 3],
            hi: vec![15, 7]
        }
        .validate(&dims)
        .is_ok());
    }

    #[test]
    fn error_response_renders_kind_and_message() {
        let line = err_response(None, "bad_request", "pos[0] out of range");
        let back = parse_response(&line).unwrap();
        assert_eq!(back.id, None);
        let (kind, msg) = back.result.unwrap_err();
        assert_eq!(kind, "bad_request");
        assert!(msg.contains("out of range"));
    }

    // The oracle: the `Value`-tree rendering the wire used before it
    // appended lines directly. Its bytes are the contract.

    fn tree_id(id: Option<i128>) -> Value {
        id.map_or(Value::Null, Value::Int)
    }

    fn op_name(op: &Op) -> &'static str {
        match op {
            Op::Query(q) => q.op(),
            Op::Mutation(Mutation::Update { .. }) => "update",
            Op::Mutation(Mutation::Commit) => "commit",
        }
    }

    fn tree_request(id: i128, op: &Op, trace: Option<u64>) -> String {
        let mut pairs = vec![
            ("id".to_string(), Value::Int(id)),
            ("op".to_string(), Value::from(op_name(op))),
        ];
        let arr = |v: &[usize]| Value::Array(v.iter().map(|&x| Value::from(x)).collect());
        match op {
            Op::Query(Query::Point { pos }) => pairs.push(("pos".into(), arr(pos))),
            Op::Query(Query::RangeSum { lo, hi }) => {
                pairs.push(("lo".into(), arr(lo)));
                pairs.push(("hi".into(), arr(hi)));
            }
            Op::Query(Query::Partial { plan }) => {
                let mut terms = Vec::new();
                plan.for_each_term(|idx, w| {
                    terms.push(Value::Array(vec![arr(idx), Value::Float(w)]))
                });
                pairs.push(("terms".into(), Value::Array(terms)));
            }
            Op::Mutation(Mutation::Update { at, dims, data }) => {
                pairs.push(("at".into(), arr(at)));
                pairs.push(("dims".into(), arr(dims)));
                let data = data.iter().map(|&x| Value::Float(x)).collect();
                pairs.push(("data".into(), Value::Array(data)));
            }
            Op::Mutation(Mutation::Commit) => {}
        }
        if let Some(t) = trace {
            pairs.push(("trace".into(), Value::from(t)));
        }
        Value::Object(pairs).to_string()
    }

    fn tree_ok(
        id: Option<i128>,
        trace: Option<u64>,
        value: f64,
        tiles: Option<&[(usize, f64)]>,
    ) -> String {
        let mut pairs = vec![
            ("id".into(), tree_id(id)),
            ("ok".into(), Value::Bool(true)),
            ("value".into(), Value::Float(value)),
        ];
        if let Some(tiles) = tiles {
            let tiles = tiles
                .iter()
                .map(|&(t, p)| Value::Array(vec![Value::from(t), Value::Float(p)]))
                .collect();
            pairs.push(("tiles".into(), Value::Array(tiles)));
        }
        if let Some(t) = trace {
            pairs.push(("trace".into(), Value::from(t)));
        }
        Value::Object(pairs).to_string()
    }

    fn tree_err(id: Option<i128>, kind: &str, message: &str) -> String {
        Value::Object(vec![
            ("id".into(), tree_id(id)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::from(kind)),
            ("message".into(), Value::from(message)),
        ])
        .to_string()
    }

    /// SplitMix64: the seeded inputs of the byte-identity test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn id(&mut self) -> i128 {
            let ids = [0, -1, -42, 7, i64::MAX as i128 + 1, i128::MAX, i128::MIN];
            match self.below(ids.len() + 1) {
                k if k < ids.len() => ids[k],
                _ => self.next() as i128 - (1 << 63),
            }
        }

        fn float(&mut self) -> f64 {
            let floats = [
                -0.0,
                0.0,
                1e-300,
                0.1 + 0.2,
                1.0,
                -3.0,
                1e21,
                1e300,
                f64::MIN_POSITIVE / 8.0,
                f64::MAX,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            match self.below(floats.len() + 2) {
                k if k < floats.len() => floats[k],
                k if k == floats.len() => self.below(1 << 20) as f64 - 1000.0,
                _ => f64::from_bits(self.next()),
            }
        }

        fn index(&mut self, rank: usize) -> Vec<usize> {
            (0..rank)
                .map(|_| match self.below(4) {
                    0 => usize::MAX,
                    _ => self.below(5000),
                })
                .collect()
        }

        fn trace(&mut self) -> Option<u64> {
            match self.below(3) {
                0 => None,
                1 => Some(u64::MAX),
                _ => Some(1 + self.below(1 << 30) as u64),
            }
        }

        fn op(&mut self) -> Op {
            let rank = 1 + self.below(3);
            match self.below(5) {
                0 => Op::Query(Query::Point {
                    pos: self.index(rank),
                }),
                1 => Op::Query(Query::RangeSum {
                    lo: self.index(rank),
                    hi: self.index(rank),
                }),
                2 => {
                    let mut plan = Contributions::with_capacity(rank, 0);
                    for _ in 0..self.below(5) {
                        let (idx, w) = (self.index(rank), self.float());
                        plan.push(&idx, w);
                    }
                    Op::Query(Query::Partial { plan })
                }
                3 => Op::Mutation(Mutation::Update {
                    at: self.index(rank),
                    dims: self.index(rank),
                    data: (0..self.below(5)).map(|_| self.float()).collect(),
                }),
                _ => Op::Mutation(Mutation::Commit),
            }
        }
    }

    /// Every line the writers append is the tree renderer's, byte for byte:
    /// every op with and without `trace`, extreme ids, awkward and
    /// non-finite floats, `tiles` present and absent, and error messages
    /// that need escaping.
    #[test]
    fn written_lines_are_byte_identical_to_the_tree_renderer() {
        let mut rng = Rng(0x5eed);
        let mut ops_seen = std::collections::BTreeSet::new();
        let mut out = String::new();
        for _ in 0..4000 {
            let (id, op, trace) = (rng.id(), rng.op(), rng.trace());
            ops_seen.insert((op_name(&op), trace.is_some()));
            out.clear();
            write_op(&mut out, id, &op, trace);
            assert_eq!(out, tree_request(id, &op, trace));
            if let Op::Query(q) = &op {
                assert_eq!(out, {
                    let mut line = String::new();
                    write_query(&mut line, id, q, trace);
                    line
                });
            }

            let id = (rng.below(5) > 0).then(|| rng.id());
            let value = rng.float();
            let tiles: Vec<_> = (0..rng.below(4))
                .map(|_| (rng.below(1 << 20), rng.float()))
                .collect();
            let tiles = (rng.below(2) == 0).then_some(tiles.as_slice());
            let trace = rng.trace();
            assert_eq!(
                ok_response_tiled(id, trace, value, tiles),
                tree_ok(id, trace, value, tiles)
            );
        }
        // Five ops, each with and without a trace.
        assert_eq!(ops_seen.len(), 10, "{ops_seen:?}");

        for message in [
            "",
            "pos[0] = 9 \"out\" of\trange \\",
            "line\nbreak\r\u{0}\u{1}\u{1f}\u{7f}",
            "caf\u{e9} \u{65e5}\u{672c} \u{1f600}",
        ] {
            for id in [None, Some(-1), Some(0), Some(i64::MAX as i128 + 1)] {
                assert_eq!(
                    err_response(id, "bad_request", message),
                    tree_err(id, "bad_request", message)
                );
            }
        }
    }
}
