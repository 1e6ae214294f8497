//! `shiftsplit` — command-line front end for wavelet-transformed
//! multidimensional stores.
//!
//! ```text
//! shiftsplit create  store.ws --levels 3,3,5 [--tiles 2,2,2] [--axis 2]
//! shiftsplit ingest  store.ws --data values.csv [--chunk 2,2,3]
//! shiftsplit point   store.ws 3,7,100
//! shiftsplit sum     store.ws --lo 0,0,0 --hi 7,7,99
//! shiftsplit extract store.ws --lo 0,0,0 --hi 7,7,0 [--out region.csv]
//! shiftsplit update  store.ws --at 3,5,0 --dims 2,2,4 --data delta.csv
//! shiftsplit append  store.ws --extent 32 --data month.csv
//! shiftsplit stats   store.ws
//! shiftsplit stream  --data readings.csv --k 32 [--buffer 64]
//! shiftsplit demo
//! ```
//!
//! Stores persist as a blocks file plus a `.meta` text header; all
//! maintenance (ingest, update, append with domain expansion) runs in the
//! wavelet domain via SHIFT-SPLIT.

mod args;
mod commands;
mod csv;
mod metrics;
mod wsfile;

use args::Args;

const USAGE: &str = "\
shiftsplit — I/O-efficient maintenance of wavelet-transformed data

USAGE:
  shiftsplit <command> [args]

COMMANDS:
  create  <store> --levels a,b,…   create an empty store (log2 sizes)
  ingest  <store> --data FILE [--format v3 [--threshold E | --topk K]]
          transform a full dataset into the store
          (--format v3 rewrites the result into the sparse bucketed layout
          of docs/FORMAT.md §8 — bytes on disk shrink with the data's
          sparsity; --threshold E zeroes coefficients with |c| <= E and
          --topk K keeps the K largest per tile, both reporting the
          achieved reconstruction error, see docs/ERROR_MODEL.md)
  point   <store> i,j,…            query one cell
  sum     <store> --lo … --hi …    range-sum query
  extract <store> --lo … --hi …    reconstruct a region
  update  <store> (--at … --dims … --data FILE | --batch FILE)
          add delta boxes
          (one box, or a file of one box per line `at;dims;datafile`;
          every box is checked against the store, then buffered
          tile-major and group-committed — one read-modify-write per
          dirty tile and one durability flush for the whole batch,
          bit-identical to applying the boxes one by one)
  append  <store> --extent N --data FILE        append along the grow axis
          (dense stores only; v3 stores must be re-ingested to grow)
  scrub   <store>                  verify every block against its CRC-32
          (exit 0 = intact, 2 = corruption detected; on v3 stores the
          scrub also checks directory geometry and payload encoding;
          like every command, it refuses with exit 2 a store that a
          mutation left marked in .meta by dying before its sync)
  stats   <store>                  show store geometry and on-disk bytes
          (v3 stores also report live payload vs. garbage bytes)
  synopsis <store> --k K --out F   export a K-term synopsis blob
  asksyn  <F> --at …|--lo …--hi …  approximate queries from a synopsis
  stream  --data FILE --k K        best-K synopsis of a value stream
  serve   <store> [--port N] [--workers W] [--batch B] [--requests K]
          [--addr-file F] [--writable [--wal F]]
          [--slow-ms T] [--trace-out F | --trace-ring] [--metrics-port N]
          serve point/sum queries over TCP
          (line-delimited JSON; each connection executes its own
          requests tile-major, at most B per sweep and W sweeps at once;
          --requests K exits after K responses; --port 0 picks an
          ephemeral port;
          --writable also accepts update/commit operations: commits are
          fsynced to the write-ahead log before they become visible,
          crash-left commits replay on startup, and a clean shutdown
          checkpoints the store and truncates the log;
          --trace-out records every request's spans, tile fetches and the
          epoch-tagged commit pipeline as ss-trace-v1 JSON lines;
          --trace-ring keeps them in the in-memory ring only; --slow-ms T
          logs requests slower than T ms on stderr; --metrics-port serves
          the live registry with recent-window percentiles)
  wal-replay <store> [--wal F]   replay crash-left commits from the
          write-ahead log onto the store, sync it, truncate the log
  query   <addr> (--at i,j,… | --lo … --hi …) [--out F] [--trace N]
          one-shot client for a running serve instance
          (--trace N tags the request so a tracing server records its
          spans under id N; older servers ignore the tag)
  trace-dump <file> [--chrome OUT]   summarise an ss-trace-v1 log:
          event counts, span matching, per-span latency, commit epochs;
          --chrome converts it for chrome://tracing / ui.perfetto.dev
  serve-metrics --port N [--requests K] [store]   expose the metrics registry
          (Prometheus text on any path, ss-metrics-v1 JSON on *.json paths)
  stats --watch host:port [--iterations N] [--interval-ms M]
          top-style live view of a running server's metrics endpoint
  demo                             self-contained demonstration

Every command also accepts --metrics-out FILE to write an ss-metrics-v1
JSON snapshot (counters, latency histograms, phase timings) instead of the
one-line stderr summary; ingest additionally accepts --metrics-port N to
serve the registry live while it runs.

Run any command without its required flags to see what it needs.";

fn main() {
    // Storage failures escaping the infallible BlockStore face unwind
    // with a typed `StorageError` payload. `run` reports the main
    // thread's as one `error:` line, so the hook stays quiet for them; a
    // server thread's still gets one line instead of a panic trace.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        match info.payload().downcast_ref::<ss_storage::StorageError>() {
            Some(_) if std::thread::current().name() == Some("main") => {}
            Some(e) => eprintln!("storage error: {e}"),
            None => default_hook(info),
        }
    }));
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&raw) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            if e.usage {
                eprintln!();
                eprintln!("{USAGE}");
            }
            e.code
        }
    };
    std::process::exit(code);
}

use commands::CmdError;

/// A command: reads its arguments, reports failure with an exit code.
type Handler = fn(&Args) -> Result<(), CmdError>;

/// Every command: its name (the `cli.<name>_ns` span is derived from it),
/// the flags it reads — anything else on its command line is a usage
/// error — and its handler. `--metrics-out` is accepted everywhere.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, Handler)] = &[
    ("create", "levels tiles axis", commands::create),
    ("ingest", "data chunk format threshold topk metrics-port", commands::ingest),
    ("point", "", commands::point),
    ("sum", "lo hi", commands::sum),
    ("extract", "lo hi out", commands::extract),
    ("update", "at dims data batch", commands::update),
    ("append", "extent data", commands::append),
    ("scrub", "", commands::scrub),
    ("stats", "watch iterations interval-ms", commands::stats),
    ("synopsis", "k out", commands::synopsis),
    ("asksyn", "at lo hi", commands::query_synopsis),
    ("stream", "data k buffer", commands::stream),
    ("serve", "port workers batch requests addr-file writable wal \
               slow-ms trace-out trace-ring metrics-port", commands::serve),
    ("wal-replay", "wal", commands::wal_replay),
    ("query", "at lo hi out trace", commands::query),
    ("trace-dump", "chrome", commands::trace_dump),
    ("serve-metrics", "port requests", commands::serve_metrics),
    ("demo", "", demo),
];

fn run(raw: &[String]) -> Result<(), CmdError> {
    let name = raw.first().map(|s| s.as_str()).unwrap_or("");
    let args = Args::parse(raw.get(1..).unwrap_or_default())?;
    let command = COMMANDS.iter().find(|(n, ..)| *n == name);
    // Per-command wall-clock span. It records on drop — i.e. *after* any
    // `--metrics-out` snapshot this command writes — so `cli.*_ns` shows
    // up on the live `serve-metrics` endpoint and in later snapshots from
    // the same process (e.g. `demo`'s nested commands). Unknown commands
    // share one bucket so bad input can't mint arbitrary metric names.
    let slug = command.map_or("unknown".into(), |(n, ..)| n.replace('-', "_"));
    let _span = ss_obs::global().span(&format!("cli.{slug}_ns"));
    let Some((_, flags, handler)) = command else {
        return Err(match name {
            "" => "no command given".to_string(),
            other => format!("unknown command: {other}"),
        }
        .into());
    };
    if let Some(flag) = args.unknown_flag(flags) {
        return Err(format!("unknown flag --{flag} for `{name}`").into());
    }
    // A storage failure inside the command unwinds with its typed error
    // (the infallible BlockStore face); it is reported like a returned
    // one. Any other panic keeps unwinding.
    std::panic::catch_unwind(|| handler(&args))
        .unwrap_or_else(|payload| Err(ss_storage::downcast_storage_error(payload).into()))
}

/// A self-contained walkthrough requiring no input files.
fn demo(_: &Args) -> Result<(), CmdError> {
    let dir = std::env::temp_dir().join(format!("ss_cli_demo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let store = dir.join("demo.ws");
    let store_s = store.to_str().ok_or("non-utf8 temp path")?.to_string();

    println!("## creating an 8x8x32 store (growing along axis 2)\n");
    run(&to_args(&[
        "create", &store_s, "--levels", "3,3,5", "--tiles", "2,2,2",
    ]))?;

    println!("\n## ingesting one month of synthetic rainfall\n");
    let month = ss_datagen::precipitation_month(8, 8, 32, 0, 1);
    let data_file = dir.join("month0.csv");
    std::fs::write(&data_file, csv::write_array(&month)).map_err(|e| e.to_string())?;
    run(&to_args(&[
        "ingest",
        &store_s,
        "--data",
        data_file.to_str().unwrap(),
    ]))?;

    println!("\n## appending a second month (the domain doubles)\n");
    let month1 = ss_datagen::precipitation_month(8, 8, 32, 1, 1);
    let data_file1 = dir.join("month1.csv");
    std::fs::write(&data_file1, csv::write_array(&month1)).map_err(|e| e.to_string())?;
    run(&to_args(&[
        "append",
        &store_s,
        "--extent",
        "32",
        "--data",
        data_file1.to_str().unwrap(),
    ]))?;

    println!("\n## querying\n");
    run(&to_args(&["stats", &store_s]))?;
    print!("total rainfall month 1: ");
    run(&to_args(&[
        "sum", &store_s, "--lo", "0,0,32", "--hi", "7,7,63",
    ]))?;
    print!("cell (2,3,40): ");
    run(&to_args(&["point", &store_s, "2,3,40"]))?;

    std::fs::remove_dir_all(&dir).ok();
    println!("\ndemo complete.");
    Ok(())
}

fn to_args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ss_cli_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_cli_lifecycle() {
        let dir = tmp_dir("lifecycle");
        let store = dir.join("t.ws");
        let store_s = store.to_str().unwrap().to_string();
        // create
        run(&to_args(&[
            "create", &store_s, "--levels", "2,3", "--tiles", "1,1",
        ]))
        .unwrap();
        // ingest 4x8 values 0..32
        let data: Vec<String> = (0..4)
            .map(|r| {
                (0..8)
                    .map(|c| ((r * 8 + c) as f64).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let f = dir.join("data.csv");
        std::fs::write(&f, data.join("\n")).unwrap();
        run(&to_args(&[
            "ingest",
            &store_s,
            "--data",
            f.to_str().unwrap(),
        ]))
        .unwrap();
        // queries execute without error (values checked in library tests)
        run(&to_args(&["point", &store_s, "2,5"])).unwrap();
        run(&to_args(&["sum", &store_s, "--lo", "0,0", "--hi", "3,7"])).unwrap();
        run(&to_args(&["stats", &store_s])).unwrap();
        // update a 2x2 box
        let delta = dir.join("delta.csv");
        std::fs::write(&delta, "1,1\n1,1\n").unwrap();
        run(&to_args(&[
            "update",
            &store_s,
            "--at",
            "1,3",
            "--dims",
            "2,2",
            "--data",
            delta.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_ingest_roundtrips_and_refuses_append() {
        // Ingest the same data dense (v2) and sparse (--format v3 at
        // threshold 0): every cell must read back bit-identically, scrub
        // must pass, and append must be refused on the v3 store.
        let dir = tmp_dir("v3_ingest");
        // A few isolated spikes on a zero background: the transform's
        // non-zeros cluster in a handful of tiles, the sparse win case.
        let data: Vec<String> = (0..16)
            .map(|r| {
                (0..16)
                    .map(|c| if r == 3 && c == 5 { "3.5" } else { "0" }.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let f = dir.join("data.csv");
        std::fs::write(&f, data.join("\n")).unwrap();
        let mut stores = Vec::new();
        for (name, extra) in [
            ("dense", &[][..]),
            ("sparse", &["--format", "v3", "--threshold", "0"][..]),
        ] {
            let store = dir.join(format!("{name}.ws"));
            let store_s = store.to_str().unwrap().to_string();
            run(&to_args(&[
                "create", &store_s, "--levels", "4,4", "--tiles", "2,2",
            ]))
            .unwrap();
            let mut args = vec!["ingest", &store_s, "--data", f.to_str().unwrap()];
            args.extend_from_slice(extra);
            run(&to_args(&args)).unwrap();
            stores.push(store);
        }
        let mut dense = crate::wsfile::WsFile::open(&stores[0]).unwrap();
        let mut sparse = crate::wsfile::WsFile::open(&stores[1]).unwrap();
        assert!(!dense.sparse() && sparse.sparse());
        for i in 0..16 {
            for j in 0..16 {
                let a = ss_query::point_standard(&mut dense.store, &dense.meta.levels, &[i, j]);
                let b = ss_query::point_standard(&mut sparse.store, &sparse.meta.levels, &[i, j]);
                assert_eq!(a.to_bits(), b.to_bits(), "cell ({i},{j}): {a} vs {b}");
            }
        }
        // The sparse file is smaller on disk for this mostly-zero data.
        let dense_len = std::fs::metadata(&stores[0]).unwrap().len();
        let sparse_len = std::fs::metadata(&stores[1]).unwrap().len();
        assert!(sparse_len < dense_len, "{sparse_len} !< {dense_len}");
        drop((dense, sparse));
        let sparse_s = stores[1].to_str().unwrap().to_string();
        run(&to_args(&["scrub", &sparse_s])).unwrap();
        run(&to_args(&["stats", &sparse_s])).unwrap();
        run(&to_args(&["point", &sparse_s, "2,5"])).unwrap();
        // Append is a dense-only operation (docs/FORMAT.md §8.6).
        let chunk = dir.join("chunk.csv");
        std::fs::write(&chunk, "1,1,1,1,1,1,1,1\n".repeat(16)).unwrap();
        let err = run(&to_args(&[
            "append",
            &sparse_s,
            "--extent",
            "8",
            "--data",
            chunk.to_str().unwrap(),
        ]))
        .expect_err("append on v3 must fail");
        assert!(err.msg.contains("sparse v3"), "got: {}", err.msg);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_lossy_flags_are_validated() {
        let args = |v: &[&str]| to_args(v);
        // --threshold without --format v3
        let dir = tmp_dir("v3_flags");
        let store = dir.join("f.ws");
        let store_s = store.to_str().unwrap().to_string();
        run(&args(&["create", &store_s, "--levels", "2,2"])).unwrap();
        let f = dir.join("d.csv");
        std::fs::write(&f, "1,0,0,0\n0,0,0,0\n0,0,0,0\n0,0,0,1\n").unwrap();
        for bad in [
            vec![
                "ingest",
                &store_s,
                "--data",
                f.to_str().unwrap(),
                "--threshold",
                "0.1",
            ],
            vec![
                "ingest",
                &store_s,
                "--data",
                f.to_str().unwrap(),
                "--format",
                "v3",
                "--threshold",
                "0.1",
                "--topk",
                "2",
            ],
            vec![
                "ingest",
                &store_s,
                "--data",
                f.to_str().unwrap(),
                "--format",
                "v9",
            ],
        ] {
            assert!(run(&to_args(&bad)).is_err(), "accepted: {bad:?}");
        }
        // A lossy ingest succeeds and the store still scrubs clean.
        run(&args(&[
            "ingest",
            &store_s,
            "--data",
            f.to_str().unwrap(),
            "--format",
            "v3",
            "--topk",
            "1",
        ]))
        .unwrap();
        run(&args(&["scrub", &store_s])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_through_cli_expands_domain() {
        use ss_array::{NdArray, Shape};
        let dir = tmp_dir("append");
        // (start levels, append axis, extents appended, final levels)
        let cases = [
            // Two appends of extent 4: the second doubles axis 1 from 4 to 8.
            ([1u32, 2], 1, &[4usize, 4][..], [1u32, 3]),
            // The first call outgrows the domain fourfold (two doublings
            // in one append), the second doubles a non-empty store.
            ([1, 2], 1, &[16, 16][..], [1, 5]),
            // Growing along the first axis.
            ([2, 1], 0, &[4, 4, 8][..], [4, 1]),
        ];
        for (case, (levels, axis, extents, want_levels)) in cases.into_iter().enumerate() {
            let store = dir.join(format!("a{case}.ws"));
            let store_s = store.to_str().unwrap().to_string();
            let levels_s = format!("{},{}", levels[0], levels[1]);
            run(&to_args(&[
                "create",
                &store_s,
                "--levels",
                &levels_s,
                "--axis",
                &axis.to_string(),
            ]))
            .unwrap();
            let dims = |extent: usize| {
                let mut dims = [1usize << levels[0], 1 << levels[1]];
                dims[axis] = extent;
                dims
            };
            let filled: usize = extents.iter().sum();
            let mut history = NdArray::<f64>::zeros(Shape::new(&dims(1 << want_levels[axis])));
            let mut at = [0usize; 2];
            for (m, &extent) in extents.iter().enumerate() {
                let chunk = NdArray::from_fn(Shape::new(&dims(extent)), |idx| {
                    (idx[0] * 5 + idx[1] * 3 + m * 7) as f64 / 4.0 + 1.0
                });
                let file = dir.join("c.csv");
                std::fs::write(&file, csv::write_array(&chunk)).unwrap();
                run(&to_args(&[
                    "append",
                    &store_s,
                    "--extent",
                    &extent.to_string(),
                    "--data",
                    file.to_str().unwrap(),
                ]))
                .unwrap();
                history.insert(&at, &chunk);
                at[axis] += extent;
            }
            run(&to_args(&["scrub", &store_s])).unwrap();
            let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
            assert_eq!(ws.meta.levels, want_levels, "case {case}");
            assert_eq!(ws.meta.filled, filled, "case {case}");
            let want = ss_core::standard::forward_to(&history);
            for idx in ss_array::MultiIndexIter::new(history.shape().dims()) {
                let got = ws.store.read(&idx);
                assert!(
                    (got - want.get(&idx)).abs() < 1e-9,
                    "case {case} {idx:?}: {got} vs {}",
                    want.get(&idx)
                );
            }
        }
        // Every expansion's temp pair was renamed over the store or removed.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(!name.contains("expand"), "left behind: {name}");
        }
        // A frontier the extent does not divide is refused, not misplaced.
        let store_s = dir.join("a0.ws").to_str().unwrap().to_string();
        let file = dir.join("c.csv");
        std::fs::write(&file, "1,".repeat(2 * 16)).unwrap();
        let err = run(&to_args(&[
            "append",
            &store_s,
            "--extent",
            "16",
            "--data",
            file.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.msg.contains("not a multiple of --extent 16"),
            "{}",
            err.msg
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misspelled_flags_are_usage_errors() {
        // None of these reach their command (no store or server exists):
        // the flag check comes first and names the flag and the command.
        for (command, bad, line) in [
            (
                "ingest",
                "worker",
                &["ingest", "s.ws", "--data", "d.csv", "--worker", "4"][..],
            ),
            // The serial writers are the only ones: no `--workers`.
            (
                "ingest",
                "workers",
                &["ingest", "s.ws", "--data", "d.csv", "--workers", "4"],
            ),
            (
                "update",
                "workers",
                &["update", "s.ws", "--batch", "b.txt", "--workers", "2"],
            ),
            ("serve", "writeable", &["serve", "s.ws", "--writeable"]),
            (
                "update",
                "batchh",
                &["update", "s.ws", "--batchh", "boxes.txt"],
            ),
            ("query", "att", &["query", "127.0.0.1:1", "--att", "1,2"]),
            (
                "point",
                "bogus",
                &["point", "s.ws", "1,1,1", "--bogus", "3"],
            ),
            (
                "sum",
                "hii",
                &["sum", "s.ws", "--lo", "0,0,0", "--hii", "9,9,9"],
            ),
            ("scrub", "fix", &["scrub", "s.ws", "--fix"]),
        ] {
            let err = run(&to_args(line)).unwrap_err();
            assert_eq!((err.code, err.usage), (1, true), "{line:?}");
            assert!(err.msg.contains(&format!("--{bad}")), "{}", err.msg);
            assert!(err.msg.contains(command), "{}", err.msg);
        }
        // The global flag stays accepted everywhere (here: the store is
        // what is missing, not the flag that is unknown).
        let err = run(&to_args(&[
            "point",
            "/nonexistent.ws",
            "1",
            "--metrics-out",
            "m",
        ]));
        assert!(!err.unwrap_err().msg.contains("unknown flag"));
    }

    #[test]
    fn scrub_is_clean_then_detects_corruption_with_exit_2() {
        let dir = tmp_dir("scrub");
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap().to_string();
        run(&to_args(&[
            "create", &store_s, "--levels", "3,3", "--tiles", "1,1",
        ]))
        .unwrap();
        let data: Vec<String> = (0..8)
            .map(|r| {
                (0..8)
                    .map(|c| ((r * 3 + c) as f64).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let f = dir.join("d.csv");
        std::fs::write(&f, data.join("\n")).unwrap();
        run(&to_args(&[
            "ingest",
            &store_s,
            "--data",
            f.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&["scrub", &store_s])).unwrap();
        // Rot one bit of the blocks file: scrub must fail with exit code 2
        // and without dumping the usage text.
        let mut bytes = std::fs::read(&store).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x08;
        std::fs::write(&store, &bytes).unwrap();
        let err = run(&to_args(&["scrub", &store_s])).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.msg);
        assert!(!err.usage);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_query_through_cli() {
        // Start `serve` on an ephemeral port with a request budget, run
        // `query` clients against it, check the answers are bit-identical
        // to the serial batch path, and watch the server exit cleanly once
        // the budget is spent.
        let dir = tmp_dir("serve");
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap().to_string();
        run(&to_args(&[
            "create", &store_s, "--levels", "4,4", "--tiles", "2,2",
        ]))
        .unwrap();
        let data: Vec<String> = (0..16)
            .map(|r| {
                (0..16)
                    .map(|c| (((r * 29 + c * 17) % 41) as f64 / 4.0).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let f = dir.join("d.csv");
        std::fs::write(&f, data.join("\n")).unwrap();
        run(&to_args(&[
            "ingest",
            &store_s,
            "--data",
            f.to_str().unwrap(),
        ]))
        .unwrap();
        let addr_file = dir.join("addr.txt");
        let addr_file_s = addr_file.to_str().unwrap().to_string();
        let points = [[0usize, 0], [7, 13], [15, 15], [3, 9]];
        // 4 point queries + 1 range sum = a budget of 5 responses.
        let serve_store = store_s.clone();
        let server = std::thread::spawn(move || {
            run(&to_args(&[
                "serve",
                &serve_store,
                "--port",
                "0",
                "--workers",
                "2",
                "--requests",
                "5",
                "--addr-file",
                &addr_file_s,
            ]))
        });
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(a) if !a.is_empty() => break a,
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
        let out = dir.join("answer.txt");
        let out_s = out.to_str().unwrap().to_string();
        for pos in &points {
            let at = format!("{},{}", pos[0], pos[1]);
            run(&to_args(&["query", &addr, "--at", &at, "--out", &out_s])).unwrap();
            let got: f64 = std::fs::read_to_string(&out)
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let want = ss_query::batch_points(&mut ws.store, &ws.meta.levels, &[pos.to_vec()])[0];
            assert_eq!(got.to_bits(), want.to_bits(), "point {pos:?}");
        }
        run(&to_args(&[
            "query", &addr, "--lo", "1,2", "--hi", "12,14", "--out", &out_s,
        ]))
        .unwrap();
        let got: f64 = std::fs::read_to_string(&out)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let want = ss_query::batch_range_sums(
            &mut ws.store,
            &ws.meta.levels,
            &[(vec![1, 2], vec![12, 14])],
        )[0];
        assert_eq!(got.to_bits(), want.to_bits(), "range sum");
        // The budget is now spent: the serve command returns Ok on its own.
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writable_serve_commits_durably_and_wal_replay_recovers_a_crash() {
        let dir = tmp_dir("writable_serve");
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap().to_string();
        run(&to_args(&[
            "create", &store_s, "--levels", "4,4", "--tiles", "2,2",
        ]))
        .unwrap();
        let wal = dir.join("s.wal");
        let wal_s = wal.to_str().unwrap().to_string();
        let addr_file = dir.join("addr.txt");
        let addr_file_s = addr_file.to_str().unwrap().to_string();

        // Budget of 4: point, update, commit, point.
        let serve_store = store_s.clone();
        let serve_wal = wal_s.clone();
        let server = std::thread::spawn(move || {
            run(&to_args(&[
                "serve",
                &serve_store,
                "--writable",
                "--wal",
                &serve_wal,
                "--port",
                "0",
                "--workers",
                "2",
                "--requests",
                "4",
                "--addr-file",
                &addr_file_s,
            ]))
        });
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(a) if !a.is_empty() => break a,
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let mut client = ss_serve::Client::connect(addr.trim()).unwrap();
        assert_eq!(client.point(&[2, 3]).unwrap(), 0.0); // fresh store
        client.update(&[2, 3], &[1, 2], &[4.5, -1.25]).unwrap();
        assert_eq!(client.commit().unwrap(), 1.0);
        assert_eq!(client.point(&[2, 3]).unwrap(), 4.5); // read-your-writes
        server.join().unwrap().unwrap();
        // Clean shutdown checkpointed the commit into the store file and
        // truncated the WAL to its 8-byte magic.
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), 8);
        let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
        let a = ss_query::point_standard(&mut ws.store, &ws.meta.levels, &[2, 3]);
        let b = ss_query::point_standard(&mut ws.store, &ws.meta.levels, &[2, 4]);
        assert!((a - 4.5).abs() < 1e-9, "{a}");
        assert!((b + 1.25).abs() < 1e-9, "{b}");
        drop(ws);

        // Crash scenario: commit an epoch through the snapshot store and
        // drop it with no checkpoint — the commit exists only in the WAL.
        {
            let ws = crate::wsfile::WsFile::open(&store).unwrap();
            let stats = ws.stats.clone();
            let levels = ws.meta.levels.clone();
            let (map, blocks) = ws.store.into_parts();
            let shared = ss_storage::SharedCoeffStore::new(map, blocks, 64, 2, stats);
            let (w, recs, _) = ss_maintain::Wal::open(&wal).unwrap();
            assert!(recs.is_empty());
            let snap = ss_maintain::SnapshotCoeffStore::new(shared, Some(w), 1);
            let mut buf = ss_maintain::DeltaBuffer::new();
            let delta = ss_array::NdArray::from_vec(ss_array::Shape::new(&[1, 1]), vec![2.0]);
            buf.add_box_standard(snap.map(), &levels, &[7, 7], &delta);
            snap.commit(&mut buf).unwrap();
        } // dropped without checkpoint = crash after the WAL fsync
        let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
        let lost = ss_query::point_standard(&mut ws.store, &ws.meta.levels, &[7, 7]);
        assert!(lost.abs() < 1e-9, "commit must not be in the store yet");
        drop(ws);

        run(&to_args(&["wal-replay", &store_s, "--wal", &wal_s])).unwrap();
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), 8);
        let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
        let got = ss_query::point_standard(&mut ws.store, &ws.meta.levels, &[7, 7]);
        assert!((got - 2.0).abs() < 1e-9, "{got}");
        // Earlier folded state is untouched by the replay.
        let a = ss_query::point_standard(&mut ws.store, &ws.meta.levels, &[2, 3]);
        assert!((a - 4.5).abs() < 1e-9, "{a}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_interrupted_mutation_is_refused_until_a_log_replays_it() {
        let dir = tmp_dir("interrupted");
        let data = write_cube_csv(&dir, "d.csv", 16, 16);
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap();
        run(&to_args(&[
            "create", store_s, "--levels", "4,4", "--tiles", "2,2",
        ]))
        .unwrap();
        let ingest = ["ingest", store_s, "--data", data.as_str(), "--chunk", "2,2"];
        run(&to_args(&ingest)).unwrap();
        let meta = dir.join("s.ws.meta");
        let clean = std::fs::read_to_string(&meta).unwrap();
        assert!(!clean.contains("mutating"), "{clean}");

        // A mutation whose process died after a block write, before the
        // sync: the store is marked, and every command refuses it.
        let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
        ws.store.write(&[3, 3], 1.0);
        ws.store.flush();
        drop(ws);
        let wal = dir.join("s.wal");
        let wal_s = wal.to_str().unwrap();
        let delta = dir.join("delta.csv");
        std::fs::write(&delta, "1\n").unwrap();
        let delta_s = delta.to_str().unwrap();
        let update = [
            "update", store_s, "--at", "1,1", "--dims", "1,1", "--data", delta_s,
        ];
        let commands: [&[&str]; 7] = [
            &["point", store_s, "3,5"],
            &["extract", store_s, "--lo", "0,0", "--hi", "3,3"],
            &update,
            &ingest,
            &["scrub", store_s],
            &["serve", store_s, "--requests", "1"],
            &["wal-replay", store_s, "--wal", wal_s],
        ];
        for args in commands {
            let err = run(&to_args(args)).unwrap_err();
            assert_eq!((err.code, err.usage), (2, false), "{args:?}: {}", err.msg);
            assert!(err.msg.contains("interrupted mutation"), "{}", err.msg);
        }

        // Unmarked by hand, as a restored copy would be; then a checkpoint
        // that died after writing a logged tile: the log's commits replay
        // over it, and the sync clears the mark.
        std::fs::write(&meta, &clean).unwrap();
        let ws = crate::wsfile::WsFile::open(&store).unwrap();
        let levels = ws.meta.levels.clone();
        let (map, blocks) = ws.store.into_parts();
        let shared = ss_storage::SharedCoeffStore::new(map, blocks, 64, 2, ws.stats);
        let (log, _, _) = ss_maintain::Wal::open(&wal).unwrap();
        let snap = ss_maintain::SnapshotCoeffStore::new(shared, Some(log), 0);
        let mut buf = ss_maintain::DeltaBuffer::new();
        let delta = ss_array::NdArray::from_vec(ss_array::Shape::new(&[1, 1]), vec![2.0]);
        buf.add_box_standard(snap.map(), &levels, &[7, 7], &delta);
        snap.commit(&mut buf).unwrap();
        drop(snap);
        let (_, records, _) = ss_maintain::Wal::open(&wal).unwrap();
        let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
        let before = ss_query::point_standard(&mut ws.store, &levels, &[7, 7]);
        let tile = &records[0].tiles[0];
        ws.store.overwrite_tile(tile.tile, &tile.image);
        ws.store.flush();
        drop(ws);
        assert!(crate::wsfile::WsFile::open(&store).is_err());
        run(&to_args(&["wal-replay", store_s, "--wal", wal_s])).unwrap();
        assert_eq!(std::fs::read_to_string(&meta).unwrap(), clean);
        let mut ws = crate::wsfile::WsFile::open(&store).unwrap();
        let after = ss_query::point_standard(&mut ws.store, &levels, &[7, 7]);
        assert!((after - before - 2.0).abs() < 1e-9, "{before} -> {after}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_serve_exports_a_followable_log_and_trace_dump_reads_it() {
        // A writable tracing server: a traced CLI query, then a traced
        // update+commit through the client. The ss-trace-v1 log must
        // parse line by line, contain the query's request span under its
        // explicit trace id, and tag the commit with epoch 1. trace-dump
        // must summarise the same file and convert it for chrome://tracing.
        // Trace ids are deliberately large: fresh server-allocated ids
        // count up from 1, so concurrent tests can never collide with these.
        const QUERY_TRACE: u64 = 700_001;
        const UPDATE_TRACE: u64 = 900_002;
        let dir = tmp_dir("traced_serve");
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap().to_string();
        run(&to_args(&[
            "create", &store_s, "--levels", "3,3", "--tiles", "1,1",
        ]))
        .unwrap();
        let data = write_cube_csv(&dir, "d.csv", 8, 8);
        run(&to_args(&["ingest", &store_s, "--data", &data])).unwrap();
        let trace = dir.join("trace.jsonl");
        let trace_s = trace.to_str().unwrap().to_string();
        let addr_file = dir.join("addr.txt");
        let addr_file_s = addr_file.to_str().unwrap().to_string();
        // Budget of 5: traced point, baseline point, update, commit,
        // read-your-writes point.
        let serve_store = store_s.clone();
        let serve_trace = trace_s.clone();
        let server = std::thread::spawn(move || {
            run(&to_args(&[
                "serve",
                &serve_store,
                "--writable",
                "--port",
                "0",
                "--workers",
                "2",
                "--requests",
                "5",
                "--trace-out",
                &serve_trace,
                "--slow-ms",
                "60000",
                "--addr-file",
                &addr_file_s,
            ]))
        });
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(a) if !a.is_empty() => break a,
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        run(&to_args(&[
            "query",
            &addr,
            "--at",
            "2,3",
            "--trace",
            &QUERY_TRACE.to_string(),
        ]))
        .unwrap();
        let mut client = ss_serve::Client::connect(addr.trim()).unwrap();
        client.set_trace(Some(UPDATE_TRACE));
        let base = client.point(&[1, 1]).unwrap();
        client.update(&[1, 1], &[1, 1], &[2.5]).unwrap();
        assert_eq!(client.commit().unwrap(), 1.0);
        let after = client.point(&[1, 1]).unwrap();
        assert!((after - base - 2.5).abs() < 1e-9, "{base} -> {after}");
        drop(client);
        server.join().unwrap().unwrap();

        // Every line is valid ss-trace-v1 JSON.
        let text = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<ss_obs::json::Value> = text
            .lines()
            .map(|l| ss_obs::json::parse(l).unwrap())
            .collect();
        assert!(!lines.is_empty());
        for l in &lines {
            assert_eq!(
                l.get("schema").unwrap().as_str(),
                Some(ss_obs::trace::TRACE_SCHEMA)
            );
        }
        let of_trace = |t: u64| -> Vec<&ss_obs::json::Value> {
            lines
                .iter()
                .filter(|l| l.get("trace").and_then(|x| x.as_u64()) == Some(t))
                .collect()
        };
        // The CLI query ran under its explicit id with a matched
        // request span and at least one tile fetch.
        let q = of_trace(QUERY_TRACE);
        let named = |evs: &[&ss_obs::json::Value], ev: &str, name: &str| {
            evs.iter().any(|l| {
                l.get("ev").and_then(|x| x.as_str()) == Some(ev)
                    && l.get("name").and_then(|x| x.as_str()) == Some(name)
            })
        };
        assert!(named(&q, "span_begin", "serve.request"), "{text}");
        assert!(named(&q, "span_end", "serve.request"), "{text}");
        assert!(
            q.iter()
                .any(|l| l.get("ev").and_then(|x| x.as_str()) == Some("tile_fetch")),
            "{text}"
        );
        // The update trace carries the commit span; the commit pipeline
        // tagged epoch 1 (pipeline events run outside any request trace).
        let u = of_trace(UPDATE_TRACE);
        assert!(named(&u, "span_end", "serve.commit"), "{text}");
        assert!(
            lines.iter().any(|l| {
                l.get("ev").and_then(|x| x.as_str()) == Some("commit")
                    && l.get("epoch").and_then(|x| x.as_u64()) == Some(1)
            }),
            "{text}"
        );
        // No slow-request events: the 60 s threshold is unreachable here.
        assert!(!text.contains("slow_request"), "{text}");

        // trace-dump summarises the file and emits a Chrome conversion.
        run(&to_args(&["trace-dump", &trace_s])).unwrap();
        let chrome = dir.join("chrome.json");
        let chrome_s = chrome.to_str().unwrap().to_string();
        run(&to_args(&["trace-dump", &trace_s, "--chrome", &chrome_s])).unwrap();
        let chrome_doc = ss_obs::json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let slices = chrome_doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!slices.is_empty());
        // A non-trace file is rejected with a line number, not a panic.
        let junk = dir.join("junk.txt");
        std::fs::write(&junk, "{\"schema\":\"bogus\"}\n").unwrap();
        assert!(run(&to_args(&["trace-dump", junk.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_request_log_fires_only_above_threshold() {
        let dir = tmp_dir("slow_serve");
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap().to_string();
        run(&to_args(&[
            "create", &store_s, "--levels", "2,2", "--tiles", "1,1",
        ]))
        .unwrap();
        let slow = ss_obs::global().counter("serve.requests_slow");
        // Threshold 0 ms marks every request slow; a 60 s threshold none.
        // (Concurrent tests run their servers without --slow-ms, so the
        // counter moves only through these two.)
        for (ms, expect_slow) in [("60000", false), ("0", true)] {
            let before = slow.get();
            let addr_file = dir.join(format!("addr_{ms}.txt"));
            let addr_file_s = addr_file.to_str().unwrap().to_string();
            let serve_store = store_s.clone();
            let ms_owned = ms.to_string();
            let server = std::thread::spawn(move || {
                run(&to_args(&[
                    "serve",
                    &serve_store,
                    "--port",
                    "0",
                    "--requests",
                    "2",
                    "--slow-ms",
                    &ms_owned,
                    "--addr-file",
                    &addr_file_s,
                ]))
            });
            let addr = loop {
                match std::fs::read_to_string(&addr_file) {
                    Ok(a) if !a.is_empty() => break a,
                    _ => std::thread::sleep(std::time::Duration::from_millis(5)),
                }
            };
            let mut client = ss_serve::Client::connect(addr.trim()).unwrap();
            client.point(&[0, 0]).unwrap();
            client.point(&[1, 1]).unwrap();
            drop(client);
            server.join().unwrap().unwrap();
            let fired = slow.get() - before;
            if expect_slow {
                assert!(
                    fired >= 2,
                    "threshold 0 must mark every request, got {fired}"
                );
            } else {
                assert_eq!(fired, 0, "60 s threshold must mark nothing");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_watch_polls_a_metrics_endpoint() {
        // A live endpoint with windowed percentiles; --iterations bounds
        // the loop so the test terminates.
        ss_obs::global().record_ns("watch_test.ns", 1234);
        let window =
            ss_obs::HistogramWindow::new(ss_obs::global(), std::time::Duration::from_millis(10), 3);
        let server =
            ss_obs::MetricsServer::bind_windowed("127.0.0.1:0", ss_obs::global(), window).unwrap();
        let addr = server.local_addr().to_string();
        run(&to_args(&[
            "stats",
            "--watch",
            &addr,
            "--iterations",
            "2",
            "--interval-ms",
            "20",
        ]))
        .unwrap();
        // An unreachable endpoint is a clean error, not a hang or panic.
        assert!(run(&to_args(&[
            "stats",
            "--watch",
            "127.0.0.1:1",
            "--iterations",
            "1",
        ]))
        .is_err());
        std::fs::remove_dir_all(tmp_dir("watch_unused")).ok();
    }

    /// Writes a CSV cube of `rows x cols` pseudorandom values and returns
    /// the file path.
    fn write_cube_csv(dir: &std::path::Path, name: &str, rows: usize, cols: usize) -> String {
        let data: Vec<String> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| (((r * 31 + c * 7) % 23) as f64 / 3.0).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let f = dir.join(name);
        std::fs::write(&f, data.join("\n")).unwrap();
        f.to_str().unwrap().to_string()
    }

    #[test]
    fn batched_update_matches_serial_updates() {
        // One store updated box-by-box, one with `update --batch`: all
        // cells must read back bit-identically.
        let dir = tmp_dir("batch_update");
        let data = write_cube_csv(&dir, "base.csv", 16, 16);
        // Three overlapping delta boxes.
        let d1 = dir.join("d1.csv");
        std::fs::write(&d1, "1,2,3\n4,5,6\n").unwrap();
        let d2 = dir.join("d2.csv");
        std::fs::write(&d2, "-1,-1\n-1,-1\n-1,-1\n").unwrap();
        let d3 = dir.join("d3.csv");
        std::fs::write(&d3, "0.5,0.25\n").unwrap();
        let boxes = [
            ("2,3", "2,3", "d1.csv"),
            ("3,4", "3,2", "d2.csv"),
            ("14,0", "1,2", "d3.csv"),
        ];
        let batch = dir.join("boxes.txt");
        let batch_text: String = boxes
            .iter()
            .map(|(at, dims, f)| format!("{at};{dims};{f}\n"))
            .collect();
        std::fs::write(&batch, format!("# three boxes\n\n{batch_text}")).unwrap();
        let mut stores = Vec::new();
        for (name, batched) in [("serial", false), ("batch", true)] {
            let store = dir.join(format!("{name}.ws"));
            let store_s = store.to_str().unwrap().to_string();
            run(&to_args(&[
                "create", &store_s, "--levels", "4,4", "--tiles", "2,2",
            ]))
            .unwrap();
            run(&to_args(&["ingest", &store_s, "--data", &data])).unwrap();
            if batched {
                run(&to_args(&[
                    "update",
                    &store_s,
                    "--batch",
                    batch.to_str().unwrap(),
                ]))
                .unwrap();
            } else {
                for (at, dims, f) in &boxes {
                    let df = dir.join(f);
                    run(&to_args(&[
                        "update",
                        &store_s,
                        "--at",
                        at,
                        "--dims",
                        dims,
                        "--data",
                        df.to_str().unwrap(),
                    ]))
                    .unwrap();
                }
            }
            stores.push(store);
        }
        let mut serial = crate::wsfile::WsFile::open(&stores[0]).unwrap();
        let mut batch = crate::wsfile::WsFile::open(&stores[1]).unwrap();
        for r in 0..16usize {
            for c in 0..16usize {
                let a = ss_query::point_standard(&mut serial.store, &serial.meta.levels, &[r, c]);
                let b = ss_query::point_standard(&mut batch.store, &batch.meta.levels, &[r, c]);
                assert_eq!(a.to_bits(), b.to_bits(), "batch cell ({r},{c}): {a} vs {b}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_removed_mode_flag_is_a_usage_error() {
        // The group flush has one mode, so `--mode` names nothing: every
        // command that took it refuses it rather than ignoring it.
        let dir = tmp_dir("no_mode");
        let data = write_cube_csv(&dir, "d.csv", 16, 16);
        let d1 = dir.join("d1.csv");
        std::fs::write(&d1, "1,2\n3,4\n").unwrap();
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap();
        run(&to_args(&[
            "create", store_s, "--levels", "4,4", "--tiles", "2,2",
        ]))
        .unwrap();
        let at = [
            "--at",
            "1,1",
            "--dims",
            "2,2",
            "--data",
            d1.to_str().unwrap(),
        ];
        let ingest = [
            "ingest",
            store_s,
            "--data",
            data.as_str(),
            "--mode",
            "exact",
        ];
        let update = [&["update", store_s][..], &at, &["--mode", "merged"]].concat();
        let serve = ["serve", store_s, "--writable", "--mode", "exact"];
        for args in [&ingest[..], &update, &serve] {
            let err = run(&to_args(args)).unwrap_err();
            assert_eq!((err.code, err.usage), (1, true), "{args:?}");
            assert!(err.msg.contains("--mode"), "{args:?}: {}", err.msg);
        }
        // The same ingest and update without the flag go through.
        run(&to_args(&ingest[..4])).unwrap();
        run(&to_args(&[&["update", store_s][..], &at].concat())).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_block_is_a_typed_ingest_error() {
        // A real device fault, not an injected one: one flipped payload
        // byte of block 0 (the root tile every chunk's split path and
        // every query reaches). Every command that reads it must come
        // back as a typed error naming the checksum mismatch — not as a
        // panic, not as a usage error — with scrub's exit code 2.
        let dir = tmp_dir("corrupt_ingest");
        let data = write_cube_csv(&dir, "d.csv", 16, 16);
        let slab = write_cube_csv(&dir, "slab.csv", 16, 16);
        let delta = dir.join("delta.csv");
        std::fs::write(&delta, "1,1\n1,1\n").unwrap();
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap();
        run(&to_args(&[
            "create", store_s, "--levels", "4,4", "--tiles", "2,2",
        ]))
        .unwrap();
        let ingest = ["ingest", store_s, "--data", data.as_str()];
        run(&to_args(&ingest)).unwrap();
        // docs/FORMAT.md §3: a v2 blocks file is the dense images, block 0
        // first.
        let mut bytes = std::fs::read(&store).unwrap();
        bytes[3] ^= 0x10;
        std::fs::write(&store, &bytes).unwrap();
        let delta_s = delta.to_str().unwrap();
        let update = [
            "update", store_s, "--at", "1,1", "--dims", "2,2", "--data", delta_s,
        ];
        let append = ["append", store_s, "--extent", "16", "--data", slab.as_str()];
        let commands: [&[&str]; 7] = [
            &["point", store_s, "3,5"],
            &["sum", store_s, "--lo", "0,0", "--hi", "15,15"],
            &["extract", store_s, "--lo", "0,0", "--hi", "3,3"],
            &update,
            &append,
            &ingest,
            &["scrub", store_s],
        ];
        for args in commands {
            let err = run(&to_args(args)).unwrap_err();
            assert_eq!((err.code, err.usage), (2, false), "{args:?}: {}", err.msg);
            // The failed append unwound out of a doubling: its temp
            // store and sidecar are gone with it.
            let left: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.contains(".tmp"))
                .collect();
            assert!(left.is_empty(), "{args:?} left {left:?}");
            if args[0] != "scrub" {
                assert!(
                    err.msg.contains("checksum mismatch"),
                    "{args:?}: {}",
                    err.msg
                );
                assert!(err.msg.contains("block 0"), "{args:?}: {}", err.msg);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&to_args(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn synopsis_roundtrip_through_cli() {
        let dir = tmp_dir("synopsis");
        let store = dir.join("s.ws");
        let store_s = store.to_str().unwrap().to_string();
        run(&to_args(&[
            "create", &store_s, "--levels", "3,3", "--tiles", "1,1",
        ]))
        .unwrap();
        let data: Vec<String> = (0..8)
            .map(|r| {
                (0..8)
                    .map(|c| ((r + c) as f64).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let f = dir.join("data.csv");
        std::fs::write(&f, data.join("\n")).unwrap();
        run(&to_args(&[
            "ingest",
            &store_s,
            "--data",
            f.to_str().unwrap(),
        ]))
        .unwrap();
        let syn = dir.join("syn.bin");
        run(&to_args(&[
            "synopsis",
            &store_s,
            "--k",
            "64",
            "--out",
            syn.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&["asksyn", syn.to_str().unwrap(), "--at", "2,3"])).unwrap();
        run(&to_args(&[
            "asksyn",
            syn.to_str().unwrap(),
            "--lo",
            "0,0",
            "--hi",
            "7,7",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_command() {
        let dir = tmp_dir("stream");
        let f = dir.join("v.csv");
        let values: Vec<String> = (0..256).map(|i| (i % 17).to_string()).collect();
        std::fs::write(&f, values.join("\n")).unwrap();
        run(&to_args(&[
            "stream",
            "--data",
            f.to_str().unwrap(),
            "--k",
            "8",
            "--buffer",
            "16",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
