//! The CLI subcommands.

use crate::args::{parse_list, parse_list_u32, Args};
use crate::csv;
use crate::metrics;
use crate::wsfile::{convert_to_v3, Meta, WsFile};
use ss_array::NdArray;
use ss_core::{RetentionPolicy, StandardTiling, TilingMap};
use ss_maintain::{FlushMode, UpdateBox};
use ss_storage::file::sidecar_path;
use ss_storage::{
    BlockStore, CoeffStore, FaultConfig, FaultInjectingBlockStore, FileBlockStore, RetryPolicy,
    RetryingBlockStore, StorageError,
};
use ss_transform::{Appender, ArraySource};
use std::path::Path;

/// A command failure with a process exit code attached. Usage mistakes
/// (`code` 1) reprint the USAGE text; detected data corruption (`code` 2)
/// does not — the message is the whole story.
#[derive(Debug)]
pub struct CmdError {
    /// Human-readable cause.
    pub msg: String,
    /// Process exit code.
    pub code: i32,
    /// Whether main should append the USAGE text.
    pub usage: bool,
}

impl CmdError {
    /// A corruption failure: exit code 2, no usage text.
    pub fn corruption(msg: impl Into<String>) -> CmdError {
        CmdError {
            msg: msg.into(),
            code: 2,
            usage: false,
        }
    }
}

impl From<String> for CmdError {
    fn from(msg: String) -> CmdError {
        CmdError {
            msg,
            code: 1,
            usage: true,
        }
    }
}

impl From<CmdError> for String {
    fn from(e: CmdError) -> String {
        e.msg
    }
}

/// Parses the fault-injection/retry flags shared by `ingest`:
/// `--fault-read P --fault-write P --fault-seed S --retries N`. Returns
/// `None` when none are present (the unwrapped fast path).
fn fault_flags(args: &Args) -> Result<Option<(FaultConfig, RetryPolicy)>, String> {
    let flags = ["fault-read", "fault-write", "fault-seed", "retries"];
    if !flags.iter().any(|f| args.flag_set(f)) {
        return Ok(None);
    }
    let default = FaultConfig::default();
    let cfg = FaultConfig {
        read_error_rate: args.get_or("fault-read", default.read_error_rate)?,
        write_error_rate: args.get_or("fault-write", default.write_error_rate)?,
        seed: args.get_or("fault-seed", default.seed)?,
        ..default
    };
    let policy = args.get("retries")?.map(RetryPolicy::with_retries);
    Ok(Some((cfg, policy.unwrap_or_default())))
}

/// `create <store> --levels a,b,… [--tiles a,b,…] [--axis k]`
pub fn create(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let levels = parse_list_u32(args.flag("levels")?)?;
    let tiles = match args.flag_opt("tiles") {
        Some(t) => parse_list_u32(t)?,
        None => levels.iter().map(|&n| n.min(2)).collect(),
    };
    let axis = args.get_or("axis", levels.len() - 1)?;
    if tiles.len() != levels.len() {
        return Err("levels/tiles rank mismatch".into());
    }
    if axis >= levels.len() {
        return Err("append axis out of range".into());
    }
    let meta = Meta::new(levels, tiles, 0, axis);
    let ws = WsFile::create(Path::new(path), meta)?;
    println!(
        "created {} ({} blocks of {} coefficients)",
        path,
        ws.store.map().num_tiles(),
        ws.store.map().block_capacity()
    );
    metrics::emit_quiet(args, Some(&ws.stats))
}

/// Parses `--format [v2|v3] [--threshold ε | --topk K]` into the
/// retention policy for a v3 conversion; `Ok(None)` means stay dense
/// (v2, the default).
fn v3_flags(args: &Args) -> Result<Option<RetentionPolicy>, String> {
    let format = args.flag_opt("format").unwrap_or("v2");
    let threshold = args.get::<f64>("threshold")?;
    let topk = args.get::<usize>("topk")?;
    match format {
        "v2" => {
            if threshold.is_some() || topk.is_some() {
                return Err("--threshold/--topk require --format v3".into());
            }
            Ok(None)
        }
        "v3" => match (threshold, topk) {
            (Some(_), Some(_)) => Err("--threshold and --topk are mutually exclusive".into()),
            (Some(eps), None) => {
                if eps.is_nan() || eps < 0.0 {
                    return Err("--threshold must be a number >= 0".into());
                }
                Ok(Some(RetentionPolicy::Threshold(eps)))
            }
            (None, Some(k)) => Ok(Some(RetentionPolicy::TopK(k))),
            (None, None) => Ok(Some(RetentionPolicy::Keep)),
        },
        other => Err(format!("bad --format: {other} (v2|v3)")),
    }
}

/// Rewrites the freshly ingested dense store at `path` into the sparse
/// v3 layout under `policy`, printing the compression ratio and the
/// *achieved* (not just requested) retention error (docs/ERROR_MODEL.md).
fn run_v3_conversion(path: &Path, policy: RetentionPolicy) -> Result<(), String> {
    let report = convert_to_v3(path, policy)?;
    let r = report.retention;
    println!(
        "converted to sparse v3: {} -> {} bytes on disk ({:.2}x), \
         kept {} / dropped {} non-zero coefficients",
        report.dense_bytes,
        report.sparse_bytes,
        report.dense_bytes as f64 / report.sparse_bytes.max(1) as f64,
        r.kept,
        r.dropped,
    );
    if policy.lossless() {
        println!("retention: lossless (bit-identical to the dense store)");
    } else {
        println!(
            "retention: achieved L2 error {:.6e}, max dropped coefficient {:.6e}",
            r.l2_error(),
            r.max_dropped
        );
    }
    Ok(())
}

/// One ingest run over whatever block-device stack `ingest` built:
/// per-chunk, or group-committed (`coalesce`). Storage failures come back
/// typed; the `String` is the outcome line to print.
fn run_ingest<S: BlockStore>(
    mut store: CoeffStore<StandardTiling, S>,
    src: &ArraySource,
    coalesce: Option<usize>,
) -> Result<(CoeffStore<StandardTiling, S>, String), StorageError> {
    ss_transform::try_transform(move || {
        let outcome = match coalesce {
            None => {
                let r = ss_transform::transform_standard(src, &mut store, false);
                format!("ingested {} cells in {} chunks", r.input_coeffs, r.chunks)
            }
            Some(group) => {
                let r = ss_maintain::transform_standard_coalesced(src, &mut store, group);
                format!(
                    "ingested {} cells in {} chunks with {} group flushes \
                     ({} tiles written, coalescing ratio {:.2})",
                    r.input_coeffs,
                    r.chunks,
                    r.flushes,
                    r.flush.tiles_written,
                    r.flush.coalescing_ratio()
                )
            }
        };
        (store, outcome)
    })
}

/// `ingest <store> --data values.csv [--chunk a,b,…]
/// [--coalesce N]
/// [--format v3 [--threshold ε | --topk K]]
/// [--fault-read P] [--fault-write P] [--fault-seed S] [--retries N]
/// [--metrics-out FILE] [--metrics-port N]`
///
/// `--coalesce N` buffers the SHIFT-SPLIT delta streams of N consecutive
/// chunks tile-major and group-commits them together (N = 0 buffers the
/// whole ingest), writing split-path tiles once per group instead of once
/// per chunk.
///
/// `--format v3` rewrites the store into the sparse bucketed layout of
/// `docs/FORMAT.md` §8 after the transform completes, optionally applying
/// a lossy retention pass (`--threshold ε` zeroes coefficients with
/// `|c| <= ε`; `--topk K` keeps the K largest per tile) and reporting the
/// achieved error.
pub fn ingest(args: &Args) -> Result<(), String> {
    // Held for the duration of the transform so a scraper can watch the
    // phase histograms fill in live.
    let _server = metrics::maybe_serve(args)?;
    let path = args.pos(0, "store path")?;
    let v3_policy = v3_flags(args)?;
    let coalesce = args.get("coalesce")?;
    let mut ws = WsFile::open(Path::new(path))?;
    if ws.sparse() {
        return Err(
            "cannot ingest into a sparse v3 store: create a fresh store and \
             ingest with --format v3 to rebuild it"
                .into(),
        );
    }
    let dims = ws.meta.dims();
    let data = csv::read_array(Path::new(args.flag("data")?), &dims)?;
    let chunk_levels: Vec<u32> = match args.flag_opt("chunk") {
        Some(c) => parse_list_u32(c)?,
        None => ws.meta.levels.iter().map(|&n| n.min(3)).collect(),
    };
    let src = ArraySource::new(&data, &chunk_levels);
    let outcome;
    (ws.store, outcome) = match fault_flags(args)? {
        Some((cfg, policy)) => {
            // Rebuild the stack with the fault/retry wrappers between the
            // pool and the file: pool → retries → injected faults → file.
            let stats = ws.stats.clone();
            let (map, blocks) = ws.store.into_parts();
            let wrapped =
                RetryingBlockStore::new(FaultInjectingBlockStore::new(blocks, cfg), policy);
            let store = CoeffStore::new(map, wrapped, 1 << 10, stats.clone());
            let (store, outcome) = run_ingest(store, &src, coalesce)?;
            let (map, wrapped) = store.into_parts();
            let blocks = wrapped.into_inner().into_inner();
            (CoeffStore::new(map, blocks, 1 << 10, stats), outcome)
        }
        None => run_ingest(ws.store, &src, coalesce)?,
    };
    ws.meta.filled = dims[ws.meta.axis];
    ws.save_meta()?;
    println!("{outcome}");
    let stats = ws.stats.clone();
    drop(ws);
    if let Some(policy) = v3_policy {
        run_v3_conversion(Path::new(path), policy)?;
    }
    metrics::emit(args, &stats)
}

/// `point <store> i,j,…`
pub fn point(args: &Args) -> Result<(), String> {
    if args.pos_len() > 2 {
        return Err("point takes exactly a store path and one position".into());
    }
    let path = args.pos(0, "store path")?;
    let pos = parse_list(args.pos(1, "position (i,j,…)")?)?;
    let mut ws = WsFile::open(Path::new(path))?;
    check_rank(&ws.meta, pos.len())?;
    check_box(&ws.meta, &pos, &pos)?;
    let value = ss_query::point_standard(&mut ws.store, &ws.meta.levels, &pos);
    println!("{value}");
    metrics::emit(args, &ws.stats)
}

/// `sum <store> --lo a,b,… --hi a,b,…`
pub fn sum(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let lo = parse_list(args.flag("lo")?)?;
    let hi = parse_list(args.flag("hi")?)?;
    let mut ws = WsFile::open(Path::new(path))?;
    check_box(&ws.meta, &lo, &hi)?;
    let value = ss_query::range_sum_standard(&mut ws.store, &ws.meta.levels, &lo, &hi);
    println!("{value}");
    metrics::emit(args, &ws.stats)
}

/// `extract <store> --lo a,b,… --hi a,b,… [--out file]`
pub fn extract(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let lo = parse_list(args.flag("lo")?)?;
    let hi = parse_list(args.flag("hi")?)?;
    let mut ws = WsFile::open(Path::new(path))?;
    check_box(&ws.meta, &lo, &hi)?;
    let region = ss_query::reconstruct_box_standard(&mut ws.store, &ws.meta.levels, &lo, &hi);
    let text = csv::write_array(&region);
    match args.flag_opt("out") {
        Some(out) => {
            std::fs::write(out, text).map_err(|e| e.to_string())?;
            println!("wrote {} cells to {out}", region.len());
        }
        None => print!("{text}"),
    }
    metrics::emit(args, &ws.stats)
}

/// `update <store> (--at a,b,… --dims a,b,… --data delta.csv |
/// --batch boxes.txt)`
///
/// Buffers every box's SHIFT-SPLIT delta stream tile-major and
/// group-commits it with one read-modify-write per dirty tile and a single
/// durability flush. `--at/--dims/--data` is a batch of one box; `--batch
/// FILE` reads one box per line (`at;dims;datafile`, relative data paths
/// resolved against the batch file's directory) and commits them together
/// instead of once per box. Every box is checked against the store before
/// anything is buffered. The result is bit-identical to applying the
/// boxes one at a time.
pub fn update(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let mut ws = WsFile::open(Path::new(path))?;
    let boxes = match args.flag_opt("batch") {
        Some(batch_file) => read_batch_file(Path::new(batch_file), &ws.meta)?,
        None => {
            let data = Path::new(args.flag("data")?);
            vec![read_box(
                &ws.meta,
                args.flag("at")?,
                args.flag("dims")?,
                data,
            )?]
        }
    };
    let report = ss_maintain::update_boxes_standard(
        &mut ws.store,
        &ws.meta.levels,
        &boxes,
        FlushMode::Exact,
    );
    println!(
        "applied {} boxes as {} dyadic pieces ({} coefficients); \
         group flush wrote {} tiles for {} per-box tile touches \
         (coalescing ratio {:.2})",
        boxes.len(),
        report.update.pieces,
        report.update.coeffs_touched,
        report.flush.tiles_written,
        report.flush.tile_touches,
        report.flush.coalescing_ratio()
    );
    metrics::emit(args, &ws.stats)
}

/// Parses a `--batch` file: one box per line, `at;dims;datafile`
/// (semicolon-separated, `#` comments and blank lines skipped). Relative
/// data paths resolve against the batch file's directory.
fn read_batch_file(path: &Path, meta: &Meta) -> Result<Vec<UpdateBox>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read batch file {}: {e}", path.display()))?;
    let base = path.parent().unwrap_or(Path::new("."));
    let mut boxes = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split(';').collect();
        let [at, dims, data] = parts[..] else {
            return Err(format!(
                "batch line {}: expected `at;dims;datafile`, got {line:?}",
                lineno + 1
            ));
        };
        let data = base.join(data.trim());
        let one = read_box(meta, at.trim(), dims.trim(), &data)
            .map_err(|e| format!("batch line {}: {e}", lineno + 1))?;
        boxes.push(one);
    }
    if boxes.is_empty() {
        return Err("batch file holds no boxes".into());
    }
    Ok(boxes)
}

/// Parses one update box and reads its data. The box must have the
/// store's rank, no empty axis and fit the domain (`at + dims ≤ 2^n`,
/// checked without wrapping); the error names the first axis that fails.
fn read_box(meta: &Meta, at: &str, dims: &str, data: &Path) -> Result<UpdateBox, String> {
    let origin = parse_list(at)?;
    let dims = parse_list(dims)?;
    check_ranks(meta, [("--at", &origin), ("--dims", &dims)])?;
    for (axis, ((&o, &e), &n)) in origin.iter().zip(&dims).zip(&meta.levels).enumerate() {
        let side = 1usize << n;
        if e == 0 || e > side || o > side - e {
            return Err(format!(
                "axis {axis}: {e} cells at {o} do not fit in [0, {}]",
                side - 1
            ));
        }
    }
    Ok((origin, csv::read_array(data, &dims)?))
}

/// `append <store> --data chunk.csv --extent n`
///
/// The chunk spans the full domain on every non-append axis and `extent`
/// cells along the append axis. Reopens/expands the store as needed.
pub fn append(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let extent: usize = args.require("extent")?;
    if !ss_array::is_pow2(extent) {
        return Err("extent must be a power of two".into());
    }
    let ws = WsFile::open(Path::new(path))?;
    if ws.sparse() {
        return Err(
            "cannot append: sparse v3 stores do not support domain expansion \
             (docs/FORMAT.md §8.6); re-ingest the grown dataset into a fresh \
             store with --format v3"
                .into(),
        );
    }
    if !ws.meta.filled.is_multiple_of(extent) {
        return Err(format!(
            "cannot append: the store holds {} slices, not a multiple of --extent {extent}",
            ws.meta.filled
        ));
    }
    let mut dims = ws.meta.dims();
    dims[ws.meta.axis] = extent;
    let chunk = csv::read_array(Path::new(args.flag("data")?), &dims)?;
    let stats = ws.stats.clone();
    let new_meta = append_to_file(ws, &chunk)?;
    println!(
        "appended {extent} slices; domain now {:?}, filled {}",
        new_meta.dims(),
        new_meta.filled
    );
    metrics::emit(args, &stats)
}

/// Appends one chunk to a store file through the library [`Appender`]
/// and returns the updated metadata. The CLI's own part is the files:
/// every domain doubling migrates into a fresh temp blocks file, and the
/// last of them replaces the store durably before the meta says so.
fn append_to_file(ws: WsFile, chunk: &NdArray<f64>) -> Result<Meta, String> {
    let path = ws.path().to_path_buf();
    let WsFile {
        mut meta,
        store,
        stats,
        ..
    } = ws;
    let temps = std::cell::RefCell::new(Vec::new());
    let factory = |capacity, blocks| {
        let tmp = path.with_extension(format!("expand{}.tmp", temps.borrow().len()));
        // Unwinds typed, like every failure of the store itself.
        let created = FileBlockStore::create(&tmp, capacity, blocks, stats.clone())
            .unwrap_or_else(|e| std::panic::panic_any(e));
        temps.borrow_mut().push(tmp);
        created
    };
    let mut appender = Appender::resume(store, meta.axis, meta.filled, factory);
    ss_transform::try_transform(|| appender.append(chunk))?;
    meta.levels = appender.levels().to_vec();
    meta.filled = appender.filled();
    if appender.expansions() > 0 {
        // The expanded store must be durable before it replaces the old one.
        appender.store().pool().store_mut().sync()?;
    }
    drop(appender);
    let mut temps = temps.into_inner();
    if let Some(grown) = temps.pop() {
        // Doublings a multi-doubling append only passed through go first:
        // a failure here leaves the old store untouched.
        for passed in temps.iter().flat_map(|t| [t.clone(), sidecar_path(t)]) {
            std::fs::remove_file(passed).map_err(|e| e.to_string())?;
        }
        // Blocks file first, checksum sidecar second. A crash between the two
        // renames leaves a sidecar whose length no longer matches the blocks
        // file, which `open` rejects — detectable, never silently wrong.
        std::fs::rename(&grown, &path).map_err(|e| e.to_string())?;
        std::fs::rename(sidecar_path(&grown), sidecar_path(&path)).map_err(|e| e.to_string())?;
    }
    // The blocks file must open under the new geometry before the meta
    // (temp + fsync + rename) declares it.
    let map = meta.tiling();
    let blocks = FileBlockStore::open(&path, map.block_capacity(), map.num_tiles(), stats.clone())?;
    let ws = WsFile::from_parts(meta, map, blocks, stats, &path);
    ws.save_meta()?;
    Ok(ws.meta)
}

/// `scrub <store>`
///
/// Verifies every block against its stored CRC-32. Exits 0 when the store
/// is fully intact, 2 when corruption is detected (so scripts can
/// distinguish "damaged data" from "bad invocation", which exits 1).
pub fn scrub(args: &Args) -> Result<(), CmdError> {
    let path = args.pos(0, "store path")?;
    let mut ws = WsFile::open(Path::new(path)).map_err(|e| CmdError::from(e.to_string()))?;
    let report = ws
        .verify()
        .map_err(|e| CmdError::corruption(e.to_string()))?;
    println!("{report}");
    metrics::emit_quiet(args, Some(&ws.stats))?;
    if report.is_clean() {
        Ok(())
    } else {
        Err(CmdError::corruption(format!(
            "{} of {} block(s) corrupt",
            report.corrupt.len(),
            report.blocks
        )))
    }
}

/// `stats <store>` — or `stats --watch host:port [--iterations N]
/// [--interval-ms M]` for a live `top`-style view of a running server's
/// metrics endpoint (see `serve --metrics-port` / `serve-metrics`).
pub fn stats(args: &Args) -> Result<(), String> {
    if let Some(addr) = args.flag_opt("watch") {
        if addr.is_empty() {
            return Err("--watch needs a metrics address (host:port)".into());
        }
        return stats_watch(args, addr);
    }
    let path = args.pos(0, "store path")?;
    let mut ws = WsFile::open(Path::new(path))?;
    let map = ws.meta.tiling();
    println!("store   : {path}");
    println!(
        "format  : v{}{}",
        ws.meta.version,
        if ws.sparse() {
            " (sparse bucketed)"
        } else {
            " (dense)"
        }
    );
    println!(
        "domain  : {:?} (levels {:?})",
        ws.meta.dims(),
        ws.meta.levels
    );
    println!(
        "tiles   : {} blocks x {} coefficients (per-axis sides {:?})",
        map.num_tiles(),
        map.block_capacity(),
        ws.meta
            .tiles
            .iter()
            .map(|&b| 1usize << b)
            .collect::<Vec<_>>()
    );
    println!("append  : axis {}, filled {}", ws.meta.axis, ws.meta.filled);
    let disk = std::fs::metadata(ws.path()).map(|m| m.len()).unwrap_or(0);
    println!("on disk : {disk} bytes");
    if let Some(live) = ws.store.pool().store_mut().sparse_live_bytes() {
        let dense = (map.num_tiles() * map.block_capacity() * 8) as u64;
        let overhead = ss_storage::sparse::V3_HEADER_LEN
            + map.num_tiles() as u64 * ss_storage::sparse::V3_DIR_ENTRY_LEN;
        println!(
            "sparse  : {live} live payload bytes, {overhead} header/directory, \
             {} relocation garbage; dense equivalent {dense} bytes ({:.2}x saved)",
            disk.saturating_sub(live).saturating_sub(overhead),
            dense as f64 / disk.max(1) as f64
        );
    }
    metrics::emit_quiet(args, Some(&ws.stats))
}

/// The `stats --watch` loop: polls `/metrics.json` on `addr` and renders
/// a compact live view — request/slow counters plus recent (windowed)
/// and lifetime latency percentiles. `--iterations N` stops after N
/// refreshes (0 or absent = run until killed); `--interval-ms M` sets the
/// refresh cadence. On a terminal each refresh redraws in place.
fn stats_watch(args: &Args, addr: &str) -> Result<(), String> {
    let iterations: u64 = args.get_or("iterations", 0)?;
    let interval: u64 = args.get_or("interval-ms", 1000)?;
    use std::io::IsTerminal as _;
    let redraw = std::io::stdout().is_terminal();
    let mut done = 0u64;
    loop {
        let body = http_get(addr, "/metrics.json")?;
        let doc =
            ss_obs::json::parse(&body).map_err(|e| format!("bad metrics JSON from {addr}: {e}"))?;
        if redraw {
            // Clear screen + home, like top: each refresh repaints.
            print!("\x1b[2J\x1b[H");
        }
        render_watch(addr, &doc);
        if redraw {
            use std::io::Write as _;
            std::io::stdout().flush().ok();
        }
        done += 1;
        if iterations != 0 && done >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

/// One `stats --watch` frame from an `ss-metrics-v1` document.
fn render_watch(addr: &str, doc: &ss_obs::json::Value) {
    println!("watching {addr}");
    if let Some(w) = doc.get("recent_window_s") {
        println!("recent window: {w}s");
    }
    render_topology(doc);
    if let Some(counters) = doc.get("counters").and_then(|c| c.as_object()) {
        if !counters.is_empty() {
            println!("counters:");
            for (name, v) in counters {
                println!("  {name:<32} {v}");
            }
        }
    }
    if let Some(hists) = doc.get("histograms").and_then(|h| h.as_object()) {
        if !hists.is_empty() {
            println!("latency (ns):");
            println!(
                "  {:<32} {:>10} {:>12} {:>12}   recent p50/p99",
                "histogram", "count", "p50", "p99"
            );
            for (name, h) in hists {
                let field = |v: &ss_obs::json::Value, k: &str| {
                    v.get(k).and_then(|x| x.as_u64()).unwrap_or(0)
                };
                let recent = match h.get("recent") {
                    Some(r) => format!("{}/{}", field(r, "p50"), field(r, "p99")),
                    None => "-".to_string(),
                };
                println!(
                    "  {name:<32} {:>10} {:>12} {:>12}   {recent}",
                    field(h, "count"),
                    field(h, "p50"),
                    field(h, "p99"),
                );
            }
        }
    }
}

/// The router topology section of a `stats --watch` frame: present only
/// when the watched process is a scatter-gather router (it sets the
/// `router.shards` / `router.replicas` gauges at startup). One line per
/// shard with its cumulative sub-request count.
fn render_topology(doc: &ss_obs::json::Value) {
    let gauge = |name: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(|v| v.as_u64())
    };
    let (Some(shards), Some(replicas)) = (gauge("router.shards"), gauge("router.replicas")) else {
        return;
    };
    println!("router topology: {shards} shards x {replicas} replicas");
    let counters = doc.get("counters").and_then(|c| c.as_object());
    for s in 0..shards {
        let name = format!("router.shard_requests.{s}");
        let served = counters
            .and_then(|c| c.iter().find(|(n, _)| *n == name))
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0);
        println!("  shard {s:<3} {served:>12} sub-requests");
    }
}

/// Minimal HTTP/1.0 GET against the metrics endpoint (std-only; the
/// endpoint speaks plain-text HTTP with `Connection: close`).
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut sock =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    sock.write_all(
        format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("sending request to {addr}: {e}"))?;
    let mut response = String::new();
    sock.read_to_string(&mut response)
        .map_err(|e| format!("reading response from {addr}: {e}"))?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!("malformed HTTP response from {addr}")),
    }
}

/// `serve-metrics --port N [--requests K] [store]`
///
/// Serves the process-wide metrics registry over plain TCP: Prometheus
/// text exposition on any path, the `ss-metrics-v1` JSON snapshot on paths
/// ending in `.json`. With a store argument, the store's I/O counters are
/// folded in first so the endpoint has content immediately. `--port 0`
/// picks an ephemeral port (printed on stdout); `--requests K` exits after
/// answering K requests (without it the server runs until killed).
pub fn serve_metrics(args: &Args) -> Result<(), String> {
    let port: u16 = args.get_or("port", 0)?;
    let requests: Option<u64> = args.get("requests")?;
    if args.pos_len() > 0 {
        let path = args.pos(0, "store path")?;
        let ws = WsFile::open(Path::new(path))?;
        ws.stats.publish(&ss_obs::global());
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("serving on {addr}");
    // Scripts (and our tests) read this line to learn the ephemeral port,
    // so it must not sit in the stdout buffer while we block in accept().
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let served =
        ss_obs::serve(&listener, &ss_obs::global(), requests).map_err(|e| e.to_string())?;
    println!("served {served} requests");
    Ok(())
}

/// `serve <store> [--port N] [--workers W] [--batch B] [--requests K]
/// [--addr-file FILE] [--writable [--wal FILE]]
/// [--router --shards a:p,b:p,… [--replicas N] [--bounds 0,c1,…,T]]
/// [--slow-ms T] [--trace-out FILE | --trace-ring] [--metrics-port N]`
///
/// Serves standard-form point and range-sum queries against the store over
/// plain TCP (line-delimited JSON; see the `ss-serve` crate docs for the
/// wire format). The store is re-housed in the sharded thread-safe pool;
/// every connection executes its own requests, tile-major and at most `B`
/// per sweep (a longer pipelined burst takes several sweeps), and at most
/// `W` sweeps execute at once. `--port 0` (the default) picks an ephemeral port —
/// printed on stdout and, with `--addr-file`, written to a file scripts can
/// poll; `--requests K` exits cleanly after K responses (without it the
/// server runs until killed).
///
/// `--writable` additionally accepts `update` / `commit` operations over
/// an MVCC snapshot store: every commit is appended + fsynced to the
/// write-ahead log (`--wal`, default `<store>.wal`) *before* it becomes
/// visible, commits left in the log by a crash are replayed on startup,
/// and a clean shutdown checkpoints the store and truncates the log.
///
/// Introspection: `--trace-out FILE` records every request's spans and
/// the commit pipeline's epoch-tagged events as `ss-trace-v1` JSON lines
/// (`trace-dump` summarises the file or converts it for chrome://tracing);
/// `--trace-ring` keeps the same events in the in-memory ring only.
/// `--slow-ms T` logs any request slower than `T` milliseconds on stderr
/// and counts it in `serve.requests_slow`. `--metrics-port N` exposes the
/// live registry (with sliding-window recent percentiles) while serving.
pub fn serve(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let port: u16 = args.get_or("port", 0)?;
    let workers: usize = args.get_or("workers", 4)?;
    if workers == 0 {
        return Err("--workers must be at least one".into());
    }
    let batch_max: usize = args.get_or("batch", 64)?;
    if batch_max == 0 {
        return Err("--batch must be at least one".into());
    }
    let max_requests: Option<u64> = args.get("requests")?;
    let slow_ms: Option<f64> = args.get("slow-ms")?;
    if slow_ms.is_some_and(|ms| !ms.is_finite() || ms < 0.0) {
        return Err("--slow-ms must be a non-negative number".into());
    }
    let slow_ns = slow_ms.map(|ms| (ms * 1e6) as u64);
    // Tracing goes live before the listener so even the first request is
    // covered; `--trace-out` implies the ring too (trace-dump reads the
    // file, `stats --watch` style tooling reads the ring).
    let trace_out = args.flag_opt("trace-out").filter(|p| !p.is_empty());
    if let Some(tpath) = trace_out {
        let file = std::fs::File::create(tpath).map_err(|e| format!("creating {tpath}: {e}"))?;
        ss_obs::trace::tracer().enable_export(Box::new(std::io::BufWriter::new(file)));
    } else if args.flag_set("trace-ring") {
        ss_obs::trace::tracer().enable_ring();
    }
    let ws = WsFile::open(Path::new(path))?;
    let writable = args.flag_set("writable");
    let levels = ws.meta.levels.clone();
    let tiling = ws.meta.tiling();
    let stats = ws.stats.clone();
    let (map, blocks) = ws.store.into_parts();
    let shared = ss_storage::SharedCoeffStore::new(map, blocks, 1 << 10, workers, stats.clone());
    let config = ss_serve::ServeConfig {
        workers,
        batch_max,
        max_requests,
        slow_ns,
    };
    let _metrics = metrics::maybe_serve(args)?;
    let bind_addr = format!("127.0.0.1:{port}");
    let (server, snapshot) = if args.flag_set("router") {
        if writable {
            return Err(
                "--router and --writable conflict: a router holds no store or WAL of its own \
                 (start the shard servers --writable instead)"
                    .into(),
            );
        }
        let topo = parse_router_topology(args, tiling.num_tiles())?;
        println!(
            "router over {} shards x {} replicas (tile bounds {:?})",
            topo.shard_map().shards(),
            topo.shard_map().replicas(),
            topo.shard_map().bounds()
        );
        let server = ss_serve::QueryServer::bind_router(&bind_addr, tiling, levels, topo, config)
            .map_err(|e| e.to_string())?;
        (server, None)
    } else if writable {
        let (shared, wal, replayed) = open_wal_and_replay(args, path, shared)?;
        if replayed.commits > 0 {
            println!(
                "wal: replayed {} commits ({} tile images), resuming at epoch {}",
                replayed.commits, replayed.tiles, replayed.last_epoch
            );
        }
        let snap = std::sync::Arc::new(ss_maintain::SnapshotCoeffStore::new(
            shared,
            Some(wal),
            replayed.last_epoch,
        ));
        let server = ss_serve::QueryServer::bind_writable(
            &bind_addr,
            std::sync::Arc::clone(&snap),
            levels,
            FlushMode::Exact,
            config,
        )
        .map_err(|e| e.to_string())?;
        (server, Some(snap))
    } else {
        let server = ss_serve::QueryServer::bind(&bind_addr, shared, levels, config)
            .map_err(|e| e.to_string())?;
        (server, None)
    };
    let addr = server.local_addr();
    println!("serving queries on {addr}");
    // Scripts (and our tests) learn the ephemeral port from this line or
    // the --addr-file, so neither may lag behind the listening socket.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if let Some(file) = args.flag_opt("addr-file") {
        std::fs::write(file, addr.to_string()).map_err(|e| e.to_string())?;
    }
    let served = server.join();
    println!("served {served} responses");
    if let Some(snap) = snapshot {
        // Clean shutdown: fold every published epoch into the store
        // (flush + fsync) and truncate the WAL. Goes through the Arc —
        // detached connection threads may still hold clones until their
        // clients hang up. Each drops its pin at the end of its sweep, so
        // the checkpoint retry loop terminates.
        while !snap.checkpoint().map_err(|e| e.to_string())? {
            std::thread::yield_now();
        }
        println!("checkpointed store, wal truncated");
    }
    if let Some(tpath) = trace_out {
        // Flushes the buffered writer and closes the file; events already
        // in the ring stay readable for in-process consumers.
        ss_obs::trace::tracer().disable();
        println!("trace written to {tpath}");
    }
    metrics::emit_quiet(args, Some(&stats))
}

/// Builds the router topology from `--shards a:p,b:p,…` (shard-major:
/// with `--replicas N`, each consecutive group of N addresses is one
/// shard's replica set), plus an optional `--bounds 0,c1,…,T` explicit
/// partition (e.g. from `shard-split`); without `--bounds` the tile
/// space is split evenly.
fn parse_router_topology(
    args: &Args,
    num_tiles: usize,
) -> Result<ss_serve::RouterTopology, String> {
    use std::net::ToSocketAddrs as _;
    let spec = args
        .flag_opt("shards")
        .filter(|s| !s.is_empty())
        .ok_or("--router needs --shards (comma-separated shard server addresses)")?;
    let mut addrs = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let addr = part
            .to_socket_addrs()
            .map_err(|e| format!("bad shard address {part:?}: {e}"))?
            .next()
            .ok_or(format!("shard address {part:?} resolved to nothing"))?;
        addrs.push(addr);
    }
    let replicas: usize = args.get_or("replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    if addrs.is_empty() || addrs.len() % replicas != 0 {
        return Err(format!(
            "--shards lists {} addresses, not divisible into replica sets of {replicas}",
            addrs.len()
        ));
    }
    let shards = addrs.len() / replicas;
    let map = match args.flag_opt("bounds").filter(|b| !b.is_empty()) {
        Some(b) => {
            let bounds = parse_list(b)?;
            let map = ss_storage::ShardMap::from_bounds(bounds, replicas)
                .map_err(|e| format!("bad --bounds: {e}"))?;
            if map.shards() != shards {
                return Err(format!(
                    "--bounds describes {} shards but --shards/--replicas give {shards}",
                    map.shards()
                ));
            }
            if map.num_tiles() != num_tiles {
                return Err(format!(
                    "--bounds covers {} tiles but the store has {num_tiles}",
                    map.num_tiles()
                ));
            }
            map
        }
        None => ss_storage::ShardMap::even(num_tiles, shards, replicas)
            .map_err(|e| format!("partitioning {num_tiles} tiles into {shards} shards: {e}"))?,
    };
    let grouped = addrs.chunks(replicas).map(<[_]>::to_vec).collect();
    ss_serve::RouterTopology::new(map, grouped)
}

/// `shard-split <store> --shards S [--replicas N] [--out FILE]`
///
/// Offline rebalancer: weighs every tile by its non-zero coefficient
/// count (the proxy for routed read work — zero coefficients contribute
/// nothing to a partial sum) and computes contiguous shard bounds that
/// even out total weight. Prints the even split next to the balanced one
/// and the `--bounds` list to paste into `serve --router`; `--out FILE`
/// writes that list for scripts.
pub fn shard_split(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let shards: usize = args.require("shards")?;
    let replicas: usize = args.get_or("replicas", 1)?;
    let mut ws = WsFile::open(Path::new(path))?;
    let map = ws.meta.tiling();
    let num_tiles = map.num_tiles();
    let slots = map.block_capacity();
    let mut weight = vec![0u64; num_tiles];
    for (t, w) in weight.iter_mut().enumerate() {
        for s in 0..slots {
            if ws.store.read_at(t, s) != 0.0 {
                *w += 1;
            }
        }
    }
    let even =
        ss_storage::ShardMap::even(num_tiles, shards, replicas).map_err(|e| e.to_string())?;
    let balanced = even
        .rebalanced(&weight, shards)
        .map_err(|e| e.to_string())?;
    let total: u64 = weight.iter().sum();
    println!("store   : {path}");
    println!("tiles   : {num_tiles} ({total} non-zero coefficients)");
    println!("shards  : {shards} x {replicas} replicas");
    let describe = |label: &str, m: &ss_storage::ShardMap| {
        println!("{label}:");
        for s in 0..m.shards() {
            let r = m.range(s);
            let w: u64 = weight[r.clone()].iter().sum();
            println!(
                "  shard {s}: tiles [{}, {}) weight {w} ({:.1}%)",
                r.start,
                r.end,
                100.0 * w as f64 / total.max(1) as f64
            );
        }
    };
    describe("even split", &even);
    describe("balanced split", &balanced);
    let bounds = balanced
        .bounds()
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    println!("bounds  : {bounds}");
    println!("use with: serve <store> --router --shards … --replicas {replicas} --bounds {bounds}");
    if let Some(out) = args.flag_opt("out").filter(|o| !o.is_empty()) {
        std::fs::write(out, &bounds).map_err(|e| format!("writing {out}: {e}"))?;
        println!("bounds written to {out}");
    }
    metrics::emit_quiet(args, Some(&ws.stats))
}

/// What WAL recovery found on startup.
struct ReplaySummary {
    commits: usize,
    tiles: u64,
    last_epoch: u64,
}

/// Opens the `--wal` log (default `<store>.wal`) and replays any commits a
/// crash left in it onto `shared`. Passes `shared` through because replay
/// needs the store and the caller needs it back.
fn open_wal_and_replay<M: TilingMap, S: ss_storage::BlockStore>(
    args: &Args,
    store_path: &str,
    shared: ss_storage::SharedCoeffStore<M, S>,
) -> Result<
    (
        ss_storage::SharedCoeffStore<M, S>,
        ss_maintain::Wal,
        ReplaySummary,
    ),
    String,
> {
    let wal_path = match args.flag_opt("wal") {
        Some(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => std::path::PathBuf::from(format!("{store_path}.wal")),
    };
    let (wal, records, scan) = ss_maintain::Wal::open(&wal_path).map_err(|e| e.to_string())?;
    if scan.torn_tail {
        println!("wal: dropped torn tail (incomplete final append)");
    }
    let tiles = ss_maintain::replay_records(&records, &shared);
    Ok((
        shared,
        wal,
        ReplaySummary {
            commits: records.len(),
            tiles,
            last_epoch: records.last().map(|r| r.epoch).unwrap_or(0),
        },
    ))
}

/// `wal-replay <store> [--wal FILE]`
///
/// Standalone crash recovery: replays every commit in the write-ahead log
/// onto the store (overwriting tile post-images in commit order — exactly
/// what a writable server does on startup), flushes and fsyncs the store,
/// then truncates the log. Idempotent: replaying an already-recovered
/// store rewrites the same bits, and an empty log is a no-op.
pub fn wal_replay(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let ws = WsFile::open(Path::new(path))?;
    let stats = ws.stats.clone();
    let (map, blocks) = ws.store.into_parts();
    let shared = ss_storage::SharedCoeffStore::new(map, blocks, 1 << 10, 4, stats.clone());
    let (shared, mut wal, replayed) = open_wal_and_replay(args, path, shared)?;
    if replayed.commits == 0 {
        println!("wal is empty: nothing to replay");
    } else {
        shared.sync().map_err(|e| e.to_string())?;
        wal.reset().map_err(|e| e.to_string())?;
        println!(
            "replayed {} commits ({} tile images) up to epoch {}; store synced, wal truncated",
            replayed.commits, replayed.tiles, replayed.last_epoch
        );
    }
    metrics::emit_quiet(args, Some(&stats))
}

/// `query <addr> (--at i,j,… | --lo … --hi …) [--out FILE] [--trace N]`
///
/// One-shot client for a running `serve` instance. Prints the answer on
/// stdout; `--out` additionally writes it to a file (shortest-roundtrip
/// formatting, so reading it back yields the served `f64` bit for bit).
/// `--trace N` tags the request with trace id `N`: a tracing-enabled
/// server records its spans under that id (old or tracing-off servers
/// ignore the tag).
pub fn query(args: &Args) -> Result<(), String> {
    let addr = args.pos(0, "server address (host:port)")?;
    let mut client = ss_serve::Client::connect(addr).map_err(|e| e.to_string())?;
    if let Some(t) = args.get::<u64>("trace")? {
        if t == 0 {
            return Err("--trace must be a positive integer (0 means untraced)".into());
        }
        client.set_trace(Some(t));
    }
    let value = if let Some(at) = args.flag_opt("at") {
        let pos = parse_list(at)?;
        client.point(&pos).map_err(|e| e.to_string())?
    } else {
        let lo = parse_list(args.flag("lo")?)?;
        let hi = parse_list(args.flag("hi")?)?;
        client.range_sum(&lo, &hi).map_err(|e| e.to_string())?
    };
    println!("{value}");
    if let Some(out) = args.flag_opt("out") {
        std::fs::write(out, format!("{value}\n")).map_err(|e| e.to_string())?;
    }
    metrics::emit_quiet(args, None)
}

/// `trace-dump <file> [--chrome OUT]`
///
/// Summarises an `ss-trace-v1` JSON-lines file (from `serve --trace-out`):
/// event counts by kind, distinct request traces, span begin/end matching,
/// per-span-name latency totals, and the epoch range covered by commit
/// events. `--chrome OUT` additionally converts the file to Chrome
/// `trace_event` JSON — open it at chrome://tracing or ui.perfetto.dev to
/// follow one request end to end.
pub fn trace_dump(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "trace file (ss-trace-v1 JSON lines)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    use std::collections::{BTreeMap, HashMap, HashSet};
    let mut lines: Vec<ss_obs::json::Value> = Vec::new();
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut traces: HashSet<u64> = HashSet::new();
    let mut open_spans: HashMap<u64, String> = HashMap::new();
    // name -> (count, total ns, max ns) over completed spans
    let mut span_stats: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    let mut ended = 0u64;
    let mut epochs: Option<(u64, u64)> = None;
    for (no, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let line = no + 1;
        let v = ss_obs::json::parse(raw).map_err(|e| format!("{path}:{line}: {e}"))?;
        match v.get("schema").and_then(|s| s.as_str()) {
            Some(ss_obs::trace::TRACE_SCHEMA) => {}
            other => {
                return Err(format!(
                    "{path}:{line}: schema {other:?}, expected {:?}",
                    ss_obs::trace::TRACE_SCHEMA
                ))
            }
        }
        let ev = v
            .get("ev")
            .and_then(|e| e.as_str())
            .ok_or(format!("{path}:{line}: missing event tag"))?
            .to_string();
        if let Some(t) = v.get("trace").and_then(|t| t.as_u64()) {
            if t != 0 {
                traces.insert(t);
            }
        }
        let field = |k: &str| v.get(k).and_then(|x| x.as_u64());
        match ev.as_str() {
            "span_begin" => {
                let span =
                    field("span").ok_or(format!("{path}:{line}: span_begin without span"))?;
                let name = v
                    .get("name")
                    .and_then(|n| n.as_str())
                    .unwrap_or("?")
                    .to_string();
                open_spans.insert(span, name);
            }
            "span_end" => {
                let span = field("span").ok_or(format!("{path}:{line}: span_end without span"))?;
                let name = open_spans
                    .remove(&span)
                    .ok_or(format!("{path}:{line}: span_end without matching begin"))?;
                let dur = field("dur").unwrap_or(0);
                let e = span_stats.entry(name).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += dur;
                e.2 = e.2.max(dur);
                ended += 1;
            }
            "commit" | "checkpoint" | "wal_append" | "wal_fsync" => {
                if let Some(epoch) = field("epoch") {
                    epochs = Some(match epochs {
                        None => (epoch, epoch),
                        Some((lo, hi)) => (lo.min(epoch), hi.max(epoch)),
                    });
                }
            }
            _ => {}
        }
        *kinds.entry(ev).or_insert(0) += 1;
        lines.push(v);
    }
    println!("trace   : {path}");
    println!("events  : {}", lines.len());
    println!("traces  : {} distinct request trace ids", traces.len());
    println!(
        "spans   : {ended} completed, {} unmatched begin(s)",
        open_spans.len()
    );
    if let Some((lo, hi)) = epochs {
        println!("epochs  : {lo}..={hi} touched by the commit pipeline");
    }
    if !kinds.is_empty() {
        let by_kind: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        println!("by kind : {}", by_kind.join(" "));
    }
    if !span_stats.is_empty() {
        println!(
            "{:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_us", "max_us"
        );
        for (name, (count, total, max)) in &span_stats {
            println!(
                "{name:<24} {count:>8} {:>12} {:>12}",
                total / 1_000,
                max / 1_000
            );
        }
    }
    if let Some(out) = args.flag_opt("chrome") {
        let chrome = ss_obs::trace::chrome_trace(&lines);
        std::fs::write(out, format!("{chrome}\n")).map_err(|e| format!("writing {out}: {e}"))?;
        println!("chrome trace written to {out} (open at chrome://tracing)");
    }
    Ok(())
}

/// `stream --data values.csv --k K [--buffer B]`
pub fn stream(args: &Args) -> Result<(), String> {
    let values = csv::read_values(Path::new(args.flag("data")?))?;
    let k: usize = args.require("k")?;
    let buffer: usize = args.get_or("buffer", 64)?;
    if !ss_array::is_pow2(buffer) {
        return Err("buffer must be a power of two".into());
    }
    let max_levels = ss_array::log2_exact(ss_array::next_pow2(values.len()));
    let buf_levels = ss_array::log2_exact(buffer).min(max_levels);
    let mut s = ss_stream::BufferedStream::new(k, buf_levels, max_levels);
    for &x in &values {
        s.push(x);
    }
    println!(
        "processed {} items with {} coefficient ops ({:.2}/item)",
        values.len(),
        s.work(),
        s.work() as f64 / values.len() as f64
    );
    println!(
        "top {} coefficients by orthonormal magnitude:",
        s.entries().len().min(10)
    );
    for e in s.entries().iter().take(10) {
        let start = e.key.k << e.key.level;
        println!(
            "  level {:>2} items [{start}, {}]  value {:>10.4}  magnitude {:>10.2}",
            e.key.level,
            start + (1usize << e.key.level) - 1,
            e.value,
            e.magnitude()
        );
    }
    // No IoStats here — the registry still carries `stream.push_ns`.
    metrics::emit_quiet(args, None)
}

/// `synopsis <store> --k K --out syn.bin`
///
/// Builds a K-term synopsis of the store and writes it as a compact binary
/// blob a client can query offline (see [`query_synopsis`]).
pub fn synopsis(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "store path")?;
    let k: usize = args.require("k")?;
    let out = args.flag("out")?;
    let mut ws = WsFile::open(Path::new(path))?;
    let syn = ss_query::StoredSynopsis::build(&mut ws.store, &ws.meta.levels, k);
    let bytes = syn.to_bytes();
    std::fs::write(out, &bytes).map_err(|e| e.to_string())?;
    println!(
        "wrote {}-term synopsis ({} bytes, {:.3}% of the cube) to {out}",
        syn.retained(),
        bytes.len(),
        100.0 * syn.retained() as f64 / ws.meta.dims().iter().product::<usize>() as f64
    );
    metrics::emit_quiet(args, Some(&ws.stats))
}

/// `asksyn <syn.bin> (--at i,j,… | --lo … --hi …)`
///
/// Answers approximate queries from a synopsis file — no store needed.
pub fn query_synopsis(args: &Args) -> Result<(), String> {
    let path = args.pos(0, "synopsis path")?;
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let syn = ss_query::StoredSynopsis::from_bytes(&bytes)?;
    if let Some(at) = args.flag_opt("at") {
        let pos = parse_list(at)?;
        println!("{}", syn.point(&pos));
        return metrics::emit_quiet(args, None);
    }
    let lo = parse_list(args.flag("lo")?)?;
    let hi = parse_list(args.flag("hi")?)?;
    println!("{}", syn.range_sum(&lo, &hi));
    metrics::emit_quiet(args, None)
}

fn check_rank(meta: &Meta, rank: usize) -> Result<(), String> {
    if rank != meta.levels.len() {
        Err(format!(
            "expected {} coordinates, got {rank}",
            meta.levels.len()
        ))
    } else {
        Ok(())
    }
}

/// Both lists of a box must have the store's rank; the error names the
/// flag and the first axis it lacks or overruns.
fn check_ranks(meta: &Meta, lists: [(&str, &[usize]); 2]) -> Result<(), String> {
    for (flag, list) in lists {
        let axis = list.len().min(meta.levels.len());
        check_rank(meta, list.len()).map_err(|e| format!("{flag}: {e}, at axis {axis}"))?;
    }
    Ok(())
}

/// A query box must have the store's rank, `lo <= hi` and `hi` inside
/// the domain on every axis; the error names the first axis that fails.
fn check_box(meta: &Meta, lo: &[usize], hi: &[usize]) -> Result<(), String> {
    check_ranks(meta, [("--lo", lo), ("--hi", hi)])?;
    for (axis, ((&l, &h), &n)) in lo.iter().zip(hi).zip(&meta.levels).enumerate() {
        if l > h || h >= 1usize << n {
            let last = (1usize << n) - 1;
            return Err(format!(
                "axis {axis}: [{l}, {h}] is not a range inside [0, {last}]"
            ));
        }
    }
    Ok(())
}
