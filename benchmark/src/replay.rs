//! The layer-replay ledger of the served workloads.
//!
//! The first requests of the generated traffic are walked through the
//! layers on **one thread**, each call into a layer's public functions
//! timed from outside as a span: client encode → `parse_request` +
//! `validate` → `Query::plan` → `execute_plans_tiled` (one exchange per
//! batch, over a fresh pool of the workload's size) → `ok_response_tiled`
//! → `parse_response`. Serial, so the I/O counts repeat exactly for a
//! seed; nothing here shares a core with anything else, so the times
//! are the layers' own and not the scheduler's.

use crate::gen::{Kind, Traffic, EXCHANGE, LEVELS, SIDE};
use crate::spans::{Spans, ROOT, YARDSTICK_EVERY};
use crate::store::{self, Shared};
use ss_serve::proto;
use ss_serve::Op;
use ss_storage::IoSnapshot;
use std::collections::BTreeSet;
use std::path::Path;

/// Totals of one read replay (`_ns` fields are sums over all requests).
#[derive(Default)]
pub struct ReadReplay {
    /// Requests replayed.
    pub requests: u64,
    /// Point / range requests among them.
    pub points: u64,
    /// Range requests among them.
    pub ranges: u64,
    /// Client-side request rendering.
    pub encode_ns: u64,
    /// `parse_request` + `validate`.
    pub parse_ns: u64,
    /// `Query::plan` of point requests.
    pub plan_point_ns: u64,
    /// `Query::plan` of range requests.
    pub plan_range_ns: u64,
    /// Plan terms of point requests.
    pub terms_point: u64,
    /// Plan terms of range requests.
    pub terms_range: u64,
    /// `execute_plans_tiled`, one exchange per call.
    pub exec_ns: u64,
    /// Sum over requests of the tiles each touched.
    pub request_tiles: u64,
    /// Sum over batches of the distinct tiles each fetched.
    pub batch_tiles: u64,
    /// `ok_response_tiled`.
    pub format_ns: u64,
    /// Client-side `parse_response`.
    pub decode_ns: u64,
    /// Request line bytes, newline included.
    pub request_bytes: u64,
    /// Response line bytes, newline included.
    pub response_bytes: u64,
    /// Pool and device counters of the replay.
    pub io: IoSnapshot,
}

impl ReadReplay {
    /// Sum of the per-request layer times, µs per request.
    pub fn layers_sum_us(&self) -> f64 {
        (self.encode_ns
            + self.parse_ns
            + self.plan_point_ns
            + self.plan_range_ns
            + self.exec_ns
            + self.format_ns
            + self.decode_ns) as f64
            / self.requests as f64
            / 1e3
    }

    /// Device block reads per 1 000 requests.
    pub fn block_reads_per_kreq(&self) -> f64 {
        self.io.block_reads as f64 * 1e3 / self.requests as f64
    }
}

/// Replays the first `exchanges` exchanges of client 0's traffic against
/// the store at `ws` behind a fresh pool of `pool_blocks` blocks —
/// empty (`prefill` false: compulsory misses count) or filled as the
/// hot workloads fill theirs before serving.
pub fn read_replay(
    ws: &Path,
    pool_blocks: usize,
    prefill: bool,
    seed: u64,
    exchanges: usize,
    spans: &mut Spans,
) -> Result<ReadReplay, String> {
    let (shared, stats) = store::open_shared(ws, pool_blocks, crate::serve::WORKERS)?;
    if prefill {
        store::prefill(&shared);
        stats.reset();
    }
    let mut handle: &Shared = &shared;
    let dims = [SIDE, SIDE];
    let mut traffic = Traffic::new(seed, 0);
    let mut r = ReadReplay::default();
    let mut id = 0u64;
    for exchange in 0..exchanges {
        if exchange % YARDSTICK_EVERY == 0 {
            spans.yardstick();
        }
        let (kind, queries) = traffic.next_exchange();
        let mut plans = Vec::with_capacity(EXCHANGE);
        let first = id + 1;
        for query in &queries {
            id += 1;
            let root = spans.open("request", ROOT, id);
            let (line, ns) = spans.time("serve.client.encode", root, id, || {
                proto::request_line(id as i128, query)
            });
            r.encode_ns += ns;
            r.request_bytes += line.len() as u64 + 1;
            let (parsed, ns) = spans.time("serve.proto.parse", root, id, || {
                let request = proto::parse_request(&line).map_err(|e| e.message)?;
                match &request.op {
                    Op::Query(q) => q.validate(&dims)?,
                    Op::Mutation(m) => m.validate(&dims)?,
                }
                Ok::<_, String>(request)
            });
            r.parse_ns += ns;
            let Op::Query(parsed) = parsed?.op else {
                return Err("read traffic parsed as a mutation".into());
            };
            if parsed != *query {
                return Err(format!("request {id} changed on the wire"));
            }
            let (plan, ns) = spans.time("query.plan", root, id, || parsed.plan(&LEVELS));
            match kind {
                Kind::Point => {
                    r.points += 1;
                    r.plan_point_ns += ns;
                    r.terms_point += plan.len() as u64;
                }
                Kind::Range => {
                    r.ranges += 1;
                    r.plan_range_ns += ns;
                    r.terms_range += plan.len() as u64;
                }
            }
            plans.push(plan);
            spans.close(root);
        }
        let (answers, ns) = spans.time("query.exec", ROOT, first, || {
            ss_query::execute_plans_tiled(&mut handle, &plans)
        });
        r.exec_ns += ns;
        let mut distinct = BTreeSet::new();
        for (k, answer) in answers.iter().enumerate() {
            r.request_tiles += answer.tiles.len() as u64;
            distinct.extend(answer.tiles.iter().map(|t| t.0));
            let rid = first + k as u64;
            let root = spans.open("response", ROOT, rid);
            let (line, ns) = spans.time("serve.proto.format", root, rid, || {
                proto::ok_response_tiled(Some(rid as i128), None, answer.value, None)
            });
            r.format_ns += ns;
            r.response_bytes += line.len() as u64 + 1;
            let (back, ns) = spans.time("serve.client.decode", root, rid, || {
                proto::parse_response(&line)
            });
            r.decode_ns += ns;
            spans.close(root);
            if back?.result.map(f64::to_bits) != Ok(answer.value.to_bits()) {
                return Err(format!("answer {rid} changed on the wire"));
            }
        }
        r.batch_tiles += distinct.len() as u64;
    }
    spans.yardstick();
    r.requests = id;
    r.io = stats.snapshot();
    Ok(r)
}

/// Mean `read_tile` time on resident and on non-resident tiles, ns, for
/// a fresh pool of `pool_blocks` blocks over the store at `ws`.
pub fn pool_hit_miss_ns(
    ws: &Path,
    pool_blocks: usize,
    seed: u64,
    spans: &mut Spans,
) -> Result<(f64, f64), String> {
    use ss_core::TilingMap;
    let (shared, stats) = store::open_shared(ws, pool_blocks, crate::serve::WORKERS)?;
    let tiles = shared.map().num_tiles();
    let mut rng = ss_datagen::SplitMix64::new(seed ^ 0x9001);
    // Distinct tiles in a seeded order: every first touch misses.
    let stride = 1 + 2 * rng.below(tiles / 4);
    let stride = (stride..)
        .find(|s| gcd(*s, tiles) == 1)
        .expect("a coprime stride");
    let probes = 2048.min(tiles);
    let mut tile = rng.below(tiles);
    let mut miss_ns = 0u64;
    let mut last = Vec::new();
    for _ in 0..probes {
        tile = (tile + stride) % tiles;
        let (_, ns) = spans.time("storage.pool.miss", ROOT, tile as u64, || {
            std::hint::black_box(shared.read_tile(tile))
        });
        miss_ns += ns;
        last.push(tile);
    }
    if stats.snapshot().pool_misses != probes as u64 {
        return Err("miss probes hit the pool".into());
    }
    // The most recent tiles are resident in any pool of at least 64 blocks.
    spans.yardstick();
    let resident = &last[last.len() - 32..];
    let before = stats.snapshot().pool_misses;
    let mut hit_ns = 0u64;
    let rounds = 64;
    for _ in 0..rounds {
        for &tile in resident {
            let (_, ns) = spans.time("storage.pool.hit", ROOT, tile as u64, || {
                std::hint::black_box(shared.read_tile(tile))
            });
            hit_ns += ns;
        }
    }
    if stats.snapshot().pool_misses != before {
        return Err("hit probes missed the pool".into());
    }
    spans.yardstick();
    Ok((
        hit_ns as f64 / (rounds * resident.len()) as f64,
        miss_ns as f64 / probes as f64,
    ))
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
