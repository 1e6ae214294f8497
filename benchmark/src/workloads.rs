//! What a run of each workload does, end to end: set-up, timed pass,
//! gates, and — with `--trace 1` — the layer replay.

use crate::gen::{self, Kind, CELLS, SIDE};
use crate::host::HostLog;
use crate::maintain::{self, Cycle, Inputs};
use crate::replay::{self, ReadReplay};
use crate::serve::{self, Workload};
use crate::spans::{Spans, ROOT};
use crate::stats::{self, median, percentile, sorted};
use crate::store::{self, Scratch};
use crate::writes::{self, WriteReplay};
use crate::{Outcome, Plan};
use std::time::{Duration, Instant};

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn spans_path(name: &str) -> std::path::PathBuf {
    store::out_dir().join(format!("{name}.spans.jsonl"))
}

/// A served workload, `--trace 0`: the end-to-end metrics.
pub fn serve_end_to_end(
    scratch: &Scratch,
    workload: Workload,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut stack, setup_s) = serve::set_up_repeated(scratch, workload, plan)?;
    let pass = stack.timed_pass(secs(plan.seconds))?;
    let rss_mb = stats::rss_peak_mb();
    let ws = serve::gates_and_teardown(scratch, workload, stack, &pass, plan.seed, out)?;

    let qps = pass.qps();
    out.set("setup_s", setup_s);
    out.set("throughput", qps);
    out.set("rss_mb", rss_mb);
    out.set(
        "disk_bytes_per_user_byte",
        store::disk_bytes_per_user_byte(&ws, CELLS),
    );
    let points = pass.exchange_ms(Some(Kind::Point));
    let ranges = pass.exchange_ms(Some(Kind::Range));
    let mut spans = Spans::new();
    match workload {
        Workload::Hot | Workload::Cold => {
            out.set("primary_p50_ms", percentile(&points, 50.0));
            out.set("primary_p95_ms", percentile(&points, 95.0));
            out.set("secondary_p50_ms", percentile(&ranges, 50.0));
            let replayed = replay::read_replay(
                &ws,
                workload.pool_blocks(),
                false,
                plan.seed,
                plan.replay_exchanges,
                &mut spans,
            )?;
            out.set("ios_per_kop", replayed.block_reads_per_kreq());
        }
        Workload::Rw => {
            // What the reader sees beside the writer comes first; the
            // commit's tail is fsync and scheduler noise on this host
            // and stays a per-layer figure.
            let reads = pass.exchange_ms(None);
            out.set("primary_p50_ms", percentile(&reads, 50.0));
            out.set("primary_p95_ms", percentile(&reads, 95.0));
            out.set("secondary_p50_ms", percentile(&pass.commit_ms(), 50.0));
            let replayed = replay_writes(scratch, plan, true, &mut spans)?;
            out.set("ios_per_kop", replayed.block_ios_per_kbox());
        }
    }
    eprintln!(
        "{workload:?}: {} point / {} range exchanges; host slowdown {:.3} (median of {} readings); \
         qps {:.0} (wall clock {:.0}), point p50 {:.3} ms, range p50 {:.3} ms",
        points.len(),
        ranges.len(),
        pass.host.median_slowdown(),
        pass.host.len(),
        qps,
        pass.raw_qps(),
        percentile(&points, 50.0),
        percentile(&ranges, 50.0),
    );
    if let Some(w) = &pass.writer {
        let late = sorted(w.commits.iter().map(|c| c.late_ms).collect());
        eprintln!(
            "Rw: {} commit groups, p50 {:.3} ms, sent late p95 {:.3} ms",
            w.commits.len(),
            percentile(&pass.commit_ms(), 50.0),
            percentile(&late, 95.0)
        );
    }
    Ok(())
}

/// Serial write replay on a pristine copy of the store.
fn replay_writes(
    scratch: &Scratch,
    plan: &Plan,
    with_wal: bool,
    spans: &mut Spans,
) -> Result<WriteReplay, String> {
    let dir = scratch.subdir("pristine").map_err(|e| e.to_string())?;
    let pristine = dir.join("s1024.ws");
    store::ingest(&pristine, plan.seed)?;
    writes::write_replay(
        scratch,
        &pristine,
        plan.seed,
        plan.replay_groups,
        with_wal,
        spans,
    )
}

/// Device micro-measurements on a scratch blocks file: mean
/// `try_write_block`, `try_read_block` (CRC-verified), `sync` and bare
/// CRC-32 of one block.
fn file_micro(scratch: &Scratch, out: &mut Outcome, spans: &mut Spans) -> Result<(), String> {
    use ss_storage::{BlockStore, FileBlockStore, IoStats};
    let dir = scratch.subdir("device").map_err(|e| e.to_string())?;
    let capacity = 1usize << (gen::TILE_EXP[0] + gen::TILE_EXP[1]);
    let blocks = 4096;
    let mut file = FileBlockStore::create(&dir.join("probe.ws"), capacity, blocks, IoStats::new())
        .map_err(|e| e.to_string())?;
    let mut rng = ss_datagen::SplitMix64::new(0xd15c);
    let mut buf: Vec<f64> = (0..capacity).map(|_| rng.next_f64()).collect();
    let (written, ns) = spans.time("storage.file.write", ROOT, 0, || {
        (0..blocks).try_for_each(|id| {
            buf[0] = id as f64;
            file.try_write_block(id, &buf)
        })
    });
    written.map_err(|e| e.to_string())?;
    out.set("storage.file.write_block_ns", ns as f64 / blocks as f64);
    let (synced, ns) = spans.time("storage.file.sync", ROOT, 0, || file.sync());
    synced.map_err(|e| e.to_string())?;
    out.set("storage.file.sync_ms", ns as f64 / 1e6);
    let (read, ns) = spans.time("storage.file.read", ROOT, 0, || {
        (0..blocks).try_for_each(|k| file.try_read_block((k * 2053) % blocks, &mut buf))
    });
    read.map_err(|e| e.to_string())?;
    out.set("storage.file.read_block_ns", ns as f64 / blocks as f64);
    let bytes: Vec<u8> = buf.iter().flat_map(|v| v.to_le_bytes()).collect();
    let reps = 20_000;
    let ((), ns) = spans.time("storage.crc", ROOT, 0, || {
        for _ in 0..reps {
            std::hint::black_box(ss_storage::crc::crc32(std::hint::black_box(&bytes)));
        }
    });
    out.set("storage.crc.ns_per_block", ns as f64 / reps as f64);
    spans.yardstick();
    Ok(())
}

/// Sets the p50, p95 and p99 of `ascending` under the three `names`.
fn set_latencies(out: &mut Outcome, names: [&'static str; 3], ascending: &[f64]) {
    for (name, p) in names.into_iter().zip([50.0, 95.0, 99.0]) {
        out.set(name, percentile(ascending, p));
    }
}

fn set_read_ledger(out: &mut Outcome, r: &ReadReplay) {
    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    out.set(
        "serve.client.encode_ns_per_req",
        per(r.encode_ns, r.requests),
    );
    out.set(
        "serve.client.decode_ns_per_resp",
        per(r.decode_ns, r.requests),
    );
    out.set("serve.proto.parse_ns_per_req", per(r.parse_ns, r.requests));
    out.set(
        "serve.proto.format_ns_per_resp",
        per(r.format_ns, r.requests),
    );
    out.set(
        "serve.proto.request_bytes_per_req",
        per(r.request_bytes, r.requests),
    );
    out.set(
        "serve.proto.response_bytes_per_resp",
        per(r.response_bytes, r.requests),
    );
    out.set("query.plan.point_ns", per(r.plan_point_ns, r.points));
    out.set("query.plan.range_ns", per(r.plan_range_ns, r.ranges));
    out.set("query.plan.terms_per_point", per(r.terms_point, r.points));
    out.set("query.plan.terms_per_range", per(r.terms_range, r.ranges));
    out.set("query.exec.ns_per_req", per(r.exec_ns, r.requests));
    out.set("query.exec.tiles_per_req", per(r.request_tiles, r.requests));
    out.set("query.exec.tile_share", per(r.batch_tiles, r.request_tiles));
    out.set(
        "storage.pool.hit_ratio",
        per(r.io.pool_hits, r.io.pool_accesses()),
    );
    out.set(
        "storage.pool.evictions_per_kreq",
        per(r.io.pool_evictions * 1000, r.requests),
    );
    out.set(
        "storage.file.block_reads_per_req",
        per(r.io.block_reads, r.requests),
    );
    out.set("serve.server.layers_sum_us", r.layers_sum_us());
}

/// A served workload, `--trace 1`: the per-layer metrics.
///
/// A shorter timed pass (tracing off) gives the throughput the ratios
/// are based on and the tail latencies; the replay pass gives every
/// layer's own time and the exact counts; a last pass with the
/// `ss_obs::trace` ring on prices the program's own tracing.
pub fn serve_per_layer(
    scratch: &Scratch,
    workload: Workload,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut spans = Spans::new();
    let mut stack = serve::set_up(scratch, workload, plan.seed)?;
    let batches = ss_obs::global().counter("serve.batches");
    let batches_before = batches.get();
    let pass = stack.timed_pass(secs(plan.seconds / 2.0))?;
    let reads: u64 = pass.readers.iter().map(|r| r.attempted - r.failed).sum();
    out.set(
        "serve.server.mean_batch",
        reads as f64 / (batches.get() - batches_before).max(1) as f64,
    );
    let qps = pass.qps();
    out.set("serve.server.qps", qps);
    out.set("obs.host.slowdown", pass.host.median_slowdown());
    set_latencies(
        out,
        [
            "serve.client.point_batch_p50_ms",
            "serve.client.point_batch_p95_ms",
            "serve.client.point_batch_p99_ms",
        ],
        &pass.exchange_ms(Some(Kind::Point)),
    );
    set_latencies(
        out,
        [
            "serve.client.range_batch_p50_ms",
            "serve.client.range_batch_p95_ms",
            "serve.client.range_batch_p99_ms",
        ],
        &pass.exchange_ms(Some(Kind::Range)),
    );
    if let Some(w) = &pass.writer {
        set_latencies(
            out,
            [
                "serve.client.commit_p50_ms",
                "serve.client.commit_p95_ms",
                "serve.client.commit_p99_ms",
            ],
            &pass.commit_ms(),
        );
        let late = sorted(w.commits.iter().map(|c| c.late_ms).collect());
        out.set("serve.client.writer_late_p95_ms", percentile(&late, 95.0));
    }

    // Interactive latency: one request in flight on an otherwise idle
    // server, over the host's slowdown read before and after.
    let mut rng = ss_datagen::SplitMix64::new(plan.seed ^ 0x1dfe);
    let mut rtt_us = Vec::new();
    let mut rtt_host = HostLog::default();
    rtt_host.read(0.0);
    for _ in 0..plan.rtt_probes {
        let pos = [rng.below(SIDE), rng.below(SIDE)];
        let start = Instant::now();
        stack.reader().point(&pos).map_err(|e| e.to_string())?;
        rtt_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    rtt_host.read(1.0);
    out.attempted += rtt_us.len() as u64;
    let rtt1 = median(&rtt_us) / rtt_host.slowdown_at(0.5);
    out.set("serve.client.rtt1_p50_us", rtt1);

    // The program's own tracing, through its public switch.
    ss_obs::trace::tracer().enable_ring();
    let traced = stack.timed_pass(secs(plan.seconds / 4.0));
    ss_obs::trace::tracer().disable();
    let traced = traced?;
    out.set("obs.trace.ring_overhead_ratio", traced.qps() / qps);
    let (a, f) = traced.counts();
    out.attempted += a;
    out.failed += f;

    let ws = serve::gates_and_teardown(scratch, workload, stack, &pass, plan.seed, out)?;

    // From here on: the replay. Its times are scaled at the end by the
    // slowdown read between its stretches.
    let before_replay: Vec<&'static str> = out.metrics.keys().copied().collect();
    out.set("obs.harness.span_ns", spans.overhead_ns(100_000));
    let replayed = replay::read_replay(
        &ws,
        workload.pool_blocks(),
        workload.prefills(),
        plan.seed,
        plan.trace_replay_exchanges,
        &mut spans,
    )?;
    set_read_ledger(out, &replayed);
    let (hit_ns, miss_ns) =
        replay::pool_hit_miss_ns(&ws, workload.pool_blocks(), plan.seed, &mut spans)?;
    out.set("storage.pool.hit_ns", hit_ns);
    out.set("storage.pool.miss_ns", miss_ns);
    file_micro(scratch, out, &mut spans)?;

    if workload == Workload::Rw {
        let logged = replay_writes(scratch, plan, true, &mut spans)?;
        let bare = replay_writes(scratch, plan, false, &mut spans)?;
        let groups = logged.groups as f64;
        let commit_ms = logged.commit_ns as f64 / 1e6 / groups;
        let nowal_ms = bare.commit_ns as f64 / 1e6 / groups;
        out.set("maintain.snapshot.commit_ms", commit_ms);
        out.set("maintain.snapshot.commit_nowal_ms", nowal_ms);
        out.set("maintain.wal.tax_ms", commit_ms - nowal_ms);
        out.set(
            "maintain.wal.bytes_per_commit",
            logged.wal_bytes as f64 / groups,
        );
        out.set(
            "maintain.wal.replay_ms_per_commit",
            logged.wal_replay_ns as f64 / 1e6 / groups,
        );
        out.set(
            "maintain.snapshot.checkpoint_ms",
            logged.checkpoint_ns as f64 / 1e6,
        );
        out.set(
            "maintain.buffer.coalescing_ratio",
            logged.flush.coalescing_ratio(),
        );
        out.set(
            "transform.update.coeffs_per_box",
            logged.flush.deltas as f64 / logged.boxes as f64,
        );
        // Decomposition alone, to split the `update` op's time between
        // the transform and the buffer.
        let mut decompose_ns = 0u64;
        for k in 0..logged.groups {
            let group = gen::writer_group(plan.seed, k);
            let ((), ns) = spans.time("transform.update.decompose", ROOT, k, || {
                for (at, delta) in &group {
                    ss_transform::for_each_box_delta_standard(&gen::LEVELS, at, delta, |idx, d| {
                        std::hint::black_box((idx, d));
                    });
                }
            });
            decompose_ns += ns;
        }
        out.set(
            "transform.update.decompose_ns_per_box",
            decompose_ns as f64 / logged.boxes as f64,
        );
        out.set(
            "maintain.buffer.add_ns_per_delta",
            (logged.buffer_ns as f64 - decompose_ns as f64).max(0.0) / logged.flush.deltas as f64,
        );
        out.set(
            "storage.file.block_writes_per_kcell",
            logged.io.block_writes as f64 * 1e3
                / (logged.boxes as usize * gen::GROUP_BOX_SIDE * gen::GROUP_BOX_SIDE) as f64,
        );
    }
    scale_replay_times(out, &before_replay, spans.slowdown());
    let layers = out.metrics["serve.server.layers_sum_us"];
    out.set("serve.server.residual1_us", rtt1 - layers);
    out.set(
        "serve.server.parallel_efficiency",
        layers * qps / serve::WORKERS as f64 * 1e-6,
    );
    finish_spans(out, &spans, plan.name)
}

/// Divides every time the replay measured (each metric set since
/// `before` whose unit is a time) by the host's `slowdown` during the
/// replay, as the timed pass divides its own.
fn scale_replay_times(out: &mut Outcome, before: &[&'static str], slowdown: f64) {
    for (name, unit) in crate::metrics::PER_LAYER {
        if ["ns", "us", "ms"].contains(&unit) && !before.contains(&name) {
            if let Some(value) = out.metrics.get_mut(name) {
                *value /= slowdown;
            }
        }
    }
    out.set("obs.host.replay_slowdown", slowdown);
}

fn finish_spans(out: &mut Outcome, spans: &Spans, name: &str) -> Result<(), String> {
    out.set("obs.harness.spans_written", spans.len() as f64);
    spans
        .write_jsonl(&spans_path(name))
        .map_err(|e| format!("writing spans: {e}"))
}

/// Runs `maintain` cycles until `length` has passed (at least one).
fn cycles_for(
    scratch: &Scratch,
    inputs: &Inputs,
    length: Duration,
    out: &mut Outcome,
) -> Result<Vec<Cycle>, String> {
    let start = Instant::now();
    let mut cycles = Vec::new();
    while cycles.is_empty() || start.elapsed() < length {
        let cycle = maintain::scratch_cycle(scratch, inputs)?;
        // One operation per phase; its checks decide whether it failed.
        out.attempted += 4;
        out.gate(
            cycle.wrong == 0,
            1,
            format!("{} cells or points off after a maintain cycle", cycle.wrong),
        );
        eprintln!(
            "cycle {}: ingest {:.3} append {:.3} update {:.3} extract {:.3} s; host slowdown {:.3}, wall {:.3} s",
            cycles.len(),
            cycle.ingest_s,
            cycle.append_s(),
            cycle.update_s,
            cycle.extract_s,
            cycle.slowdown,
            cycle.wall_s
        );
        cycles.push(cycle);
    }
    Ok(cycles)
}

fn med(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    median(&cycles.iter().map(f).collect::<Vec<_>>())
}

/// Everything `maintain` needs before its first timed cycle: the seeded
/// inputs and one warm cycle (page cache, allocator, lazy statics).
/// Returns the inputs and the set-up's seconds over the host's slowdown
/// during the warm cycle.
fn maintain_set_up(scratch: &Scratch, seed: u64) -> Result<(Inputs, f64), String> {
    let start = Instant::now();
    let inputs = Inputs::new(seed);
    let warm = maintain::scratch_cycle(scratch, &inputs)?;
    if warm.wrong > 0 {
        return Err("warm-up cycle produced wrong cells".into());
    }
    let took = start.elapsed().as_secs_f64() / warm.slowdown;
    Ok((inputs, took))
}

/// `maintain`, `--trace 0`.
pub fn maintain_end_to_end(
    scratch: &Scratch,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..plan.setups {
        let (made, took) = maintain_set_up(scratch, plan.seed)?;
        inputs = Some(made);
        setups.push(took);
    }
    let inputs = inputs.expect("at least one set-up");
    let cycles = cycles_for(scratch, &inputs, secs(plan.seconds), out)?;
    let rss_mb = stats::rss_peak_mb();
    let slabs = sorted(cycles.iter().flat_map(|c| c.slab_ms.clone()).collect());
    let first = &cycles[0];

    out.set("setup_s", median(&setups));
    out.set(
        "throughput",
        maintain::CYCLE_CELLS as f64 / med(&cycles, Cycle::total_s),
    );
    out.set("primary_p50_ms", percentile(&slabs, 50.0));
    out.set("primary_p95_ms", percentile(&slabs, 95.0));
    out.set("secondary_p50_ms", med(&cycles, |c| c.update_s) * 1e3);
    out.set(
        "ios_per_kop",
        first.block_ios() as f64 * 1e3 / maintain::CYCLE_CELLS as f64,
    );
    out.set(
        "disk_bytes_per_user_byte",
        first.disk_bytes as f64 / (8 * 2 * CELLS) as f64,
    );
    out.set("rss_mb", rss_mb);
    out.gate(
        cycles.iter().all(|c| c.block_ios() == first.block_ios()),
        1,
        "block I/O differs between cycles of one seed".into(),
    );
    eprintln!(
        "maintain: {} cycles; ingest {:.3} s, append {:.3} s, update {:.3} s, extract {:.3} s",
        cycles.len(),
        med(&cycles, |c| c.ingest_s),
        med(&cycles, Cycle::append_s),
        med(&cycles, |c| c.update_s),
        med(&cycles, |c| c.extract_s),
    );
    Ok(())
}

/// `maintain`, `--trace 1`: per-phase rates from a shorter run of
/// cycles, then each layer's share from the instrumented repeat.
pub fn maintain_per_layer(scratch: &Scratch, plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let mut spans = Spans::new();
    let (inputs, _) = maintain_set_up(scratch, plan.seed)?;
    let cycles = cycles_for(scratch, &inputs, secs(plan.seconds / 2.0), out)?;
    out.set("obs.host.slowdown", med(&cycles, |c| c.slowdown));
    let first = &cycles[0];
    let mcells = CELLS as f64 / 1e6;
    out.set(
        "transform.chunked.ingest_mcells_s",
        mcells / med(&cycles, |c| c.ingest_s),
    );
    out.set(
        "transform.append.append_mcells_s",
        mcells / med(&cycles, Cycle::append_s),
    );
    out.set(
        "maintain.update_boxes_s",
        gen::BATCH_BOXES as f64 / med(&cycles, |c| c.update_s),
    );
    let extract_s = med(&cycles, |c| c.extract_s);
    out.set("query.recon.extract_mcells_s", mcells / extract_s);
    out.set("query.recon.ns_per_cell", extract_s * 1e9 / CELLS as f64);
    out.set(
        "query.recon.coeff_reads_per_cell",
        first.io[3].coeff_reads as f64 / CELLS as f64,
    );
    out.set(
        "maintain.buffer.coalescing_ratio",
        first.flush.coalescing_ratio(),
    );
    let writes: u64 = first.io.iter().map(|io| io.block_writes).sum();
    out.set(
        "storage.file.block_writes_per_kcell",
        writes as f64 * 1e3 / maintain::CYCLE_CELLS as f64,
    );

    // Expansion cost: what the slabs that grew the domain took beyond a
    // plain slab.
    let plain = med(&cycles, |c| {
        let s = sorted(c.slab_ms.clone());
        percentile(&s, 50.0)
    });
    let expand_ms = med(&cycles, |c| {
        let mut s = sorted(c.slab_ms.clone());
        s.drain(..s.len() - maintain::EXPANSIONS).for_each(drop);
        s.iter().map(|ms| ms - plain).sum::<f64>()
    });
    out.set("transform.append.expand_ms", expand_ms);
    out.set("transform.append.expansions", maintain::EXPANSIONS as f64);
    out.set(
        "transform.append.ns_per_cell_noexpand",
        plain * 1e6 / (SIDE * maintain::SLAB) as f64,
    );

    let before_replay: Vec<&'static str> = out.metrics.keys().copied().collect();
    out.set("obs.harness.span_ns", spans.overhead_ns(100_000));
    let l = maintain::ledger(scratch, &inputs, &mut spans)?;
    out.set(
        "transform.update.decompose_ns_per_box",
        l.decompose_ns_per_box,
    );
    out.set("transform.update.coeffs_per_box", l.coeffs_per_box);
    out.set("maintain.buffer.add_ns_per_delta", l.add_ns_per_delta);
    out.set("maintain.buffer.flush_ms_per_ktile", l.flush_ms_per_ktile);
    out.set("transform.chunked.ns_per_cell", l.chunked_ns_per_cell);
    out.set(
        "transform.chunked.block_ios_per_kcell",
        l.chunked_block_ios_per_kcell,
    );
    out.set("core.standard.forward_ns_per_cell", l.forward_ns_per_cell);
    out.set("core.split.ns_per_delta", l.split_ns_per_delta);
    file_micro(scratch, out, &mut spans)?;
    scale_replay_times(out, &before_replay, spans.slowdown());
    finish_spans(out, &spans, plan.name)
}

/// Runs the named workload under `plan`.
pub fn run(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let served = match plan.name {
        "serve_hot" => Some(Workload::Hot),
        "serve_cold" => Some(Workload::Cold),
        "serve_rw" => Some(Workload::Rw),
        "maintain" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    match (served, plan.trace) {
        (Some(w), false) => serve_end_to_end(&scratch, w, plan, out),
        (Some(w), true) => serve_per_layer(&scratch, w, plan, out),
        (None, false) => maintain_end_to_end(&scratch, plan, out),
        (None, true) => maintain_per_layer(&scratch, plan, out),
    }
}
