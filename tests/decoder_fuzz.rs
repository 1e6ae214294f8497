//! Decoder totality for what comes off disk or the wire (ROADMAP 9(a)), in
//! `request_fuzz.rs`'s style: seeded valid encodings, mutated — bit flips,
//! truncations, rewritten length, count and level fields — through
//!
//! * `StoredSynopsis::from_bytes` (a synopsis shipped to a client),
//! * `Meta::from_text`, then `WsFile::open` on a real small store and an
//!   `Appender` seated on what opened (a `.meta` header on disk),
//! * `ss_serve::proto::parse_response` (a router or client reading a
//!   shard's reply),
//! * `ss_storage::sparse::decode` (one v3 block payload) and
//!   `FileBlockStore::open_v3` on a real small store with damaged header
//!   and directory bytes (a v3 blocks file on disk),
//! * `ShardMap::from_bounds` (a router's `--bounds`).
//!
//! Every input must come back `Ok` or `Err`, never a panic. No single
//! allocation may be sized from a field the decoder has not checked: the
//! tracking allocator below records the largest request a decode makes,
//! and it must stay within a multiple of the input's size (a count field
//! claiming 2^34 records once asked for 1.1 TB and aborted the process).
//! Every accepted input must round-trip through its encoder. CI runs this
//! file in release too: overflow checks differ.

use shiftsplit::core::sparse::SparseTile;
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::query::StoredSynopsis;
use shiftsplit::storage::file::sidecar_path;
use shiftsplit::storage::sparse::{self, bitmap_len, bucket_for, num_buckets};
use shiftsplit::storage::{
    wstore::mem_store, BlockStore, FileBlockStore, IoStats, Meta, ShardMap, StorageError, WsFile,
};
use shiftsplit::transform::Appender;
use ss_serve::proto::{self, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

thread_local! {
    /// The largest allocation the current thread requested since the last
    /// reset (const-initialised and destructor-free, so touching it from
    /// the allocator cannot recurse).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Tracking;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local maximum that
// neither allocates nor unwinds. `realloc` and `alloc_zeroed` keep their
// default bodies, which go through `alloc`.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(layout.size())));
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Runs `f`, catching a panic; returns its outcome and the largest single
/// allocation it made.
fn tracked<R>(f: impl FnOnce() -> R) -> (std::thread::Result<R>, usize) {
    LARGEST.with(|largest| largest.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    (outcome, LARGEST.with(Cell::get))
}

/// What a decode of `input_bytes` may allocate at once: proportional to
/// the input, never to a number written inside it.
fn allocation_cap(input_bytes: usize) -> usize {
    64 * input_bytes + (1 << 20)
}

fn pick<'a, T>(rng: &mut SplitMix64, from: &'a [T]) -> &'a T {
    &from[rng.below(from.len())]
}

/// A synopsis of a seeded store: rank 1–3, levels 1–4, a third of the
/// coefficients zero, `k` random.
fn valid_synopsis(rng: &mut SplitMix64) -> Vec<u8> {
    let levels: Vec<u32> = (0..1 + rng.below(3))
        .map(|_| 1 + rng.below(4) as u32)
        .collect();
    let dims: Vec<usize> = levels.iter().map(|&n| 1usize << n).collect();
    let tiles = vec![1; levels.len()];
    let mut cs = mem_store(StandardTiling::new(&levels, &tiles), 64, IoStats::new());
    for idx in shiftsplit::array::MultiIndexIter::new(&dims) {
        if rng.below(3) != 0 {
            cs.write(&idx, rng.range(-50.0, 50.0));
        }
    }
    let k = rng.below(dims.iter().product::<usize>() + 1);
    StoredSynopsis::build(&mut cs, &levels, k).to_bytes()
}

/// One to two field rewrites, bit flips, truncations or extensions.
fn mutate_synopsis(rng: &mut SplitMix64, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + rng.below(2) {
        let d = bytes.get(5).map_or(0, |&d| d as usize);
        let count_at = 6 + d;
        match rng.below(7) {
            0 => {
                for _ in 0..1 + rng.below(3) {
                    if !bytes.is_empty() {
                        let at = rng.below(bytes.len());
                        bytes[at] ^= 1 << rng.below(8);
                    }
                }
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            2 if bytes.len() >= count_at + 8 => {
                let count = u64::from_le_bytes(bytes[count_at..count_at + 8].try_into().unwrap());
                let choices = [
                    1u64 << 34,
                    u64::MAX,
                    count.wrapping_add(1),
                    count.wrapping_sub(1),
                    0,
                    rng.next_u64(),
                    bytes.len() as u64 / 8,
                    count.wrapping_mul(u64::MAX / 8 + 1),
                ];
                let count = *pick(rng, &choices);
                bytes[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
            }
            3 if d > 0 && bytes.len() > 6 + d => {
                let choices = [70u8, 64, 63, 255, 0, rng.next_u64() as u8];
                let level = *pick(rng, &choices);
                bytes[6 + rng.below(d)] = level;
            }
            4 if bytes.len() > 5 => bytes[5] = *pick(rng, &[0u8, 1, 2, 3, 255]),
            5 => bytes.extend((0..1 + rng.below(24)).map(|_| rng.next_u64() as u8)),
            _ => {
                // Swap two records: same bytes, out of index order.
                let record = (d + 1) * 8;
                let records = bytes.len().saturating_sub(count_at + 8) / record.max(1);
                if records >= 2 {
                    let a = rng.below(records - 1);
                    let b = a + 1 + rng.below(records - 1 - a);
                    let at = |r: usize| count_at + 8 + r * record;
                    let (head, tail) = bytes.split_at_mut(at(b));
                    head[at(a)..at(a) + record].swap_with_slice(&mut tail[..record]);
                }
            }
        }
    }
    bytes
}

#[test]
fn every_synopsis_encoding_decodes_or_is_refused() {
    let header = |level: u8, count: u64| {
        let mut bytes = b"SSYN".to_vec();
        bytes.extend([1, 1, level]);
        bytes.extend(count.to_le_bytes());
        bytes
    };
    let mut inputs = vec![
        header(4, 1 << 34),
        header(4, u64::MAX),
        header(70, 0),
        header(64, 1),
        b"SSYN\x01".to_vec(),
        Vec::new(),
    ];
    let mut rng = SplitMix64::new(0xdec0);
    while inputs.len() < 3_000 {
        let valid = valid_synopsis(&mut rng);
        inputs.push(if rng.below(5) == 0 {
            valid
        } else {
            mutate_synopsis(&mut rng, valid)
        });
    }
    let mut accepted = 0;
    for bytes in &inputs {
        let (outcome, largest) = tracked(|| StoredSynopsis::from_bytes(bytes));
        let Ok(decoded) = outcome else {
            panic!("from_bytes panicked on {bytes:?}");
        };
        assert!(
            largest <= allocation_cap(bytes.len()),
            "{largest}-byte allocation decoding {} bytes",
            bytes.len()
        );
        if let Ok(synopsis) = decoded {
            assert_eq!(
                &synopsis.to_bytes(),
                bytes,
                "accepted input must round-trip"
            );
            accepted += 1;
        }
    }
    // Not vacuous: valid encodings and single-field damage both occur.
    assert!(accepted >= 500, "{accepted} of {} accepted", inputs.len());
    assert!(inputs.len() - accepted >= 1_000);
}

/// Lines a hostile or damaged `.meta` could hold.
const META_LINES: &[&str] = &[
    "levels = 70,4",
    "levels = 40,40",
    "levels = 31,31",
    "levels = 4",
    "levels = 4,3,2",
    "levels = 0,3",
    "tiles = 0,0",
    "tiles = 5,5",
    "tiles = 2",
    "tiles = 4,4",
    "axis = 9",
    "axis = 18446744073709551615",
    "filled = 18446744073709551615",
    "filled = 17",
    "version = 3",
    "version = 1",
    "format = other",
    "levels =",
    "= 4",
    "junk",
];

const META_NUMBERS: &[&str] = &[
    "0",
    "1",
    "9",
    "63",
    "64",
    "70",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "-1",
    "",
];

const META_TOKENS: &[&str] = &[
    "=", ",", "#", "\n", " ", "levels", "tiles", "axis", "filled", "version", "2",
];

/// One to three line or character edits of a meta text.
fn mutate_meta(rng: &mut SplitMix64, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        let line = rng.below(lines.len().max(1));
        match rng.below(7) {
            0 if !lines.is_empty() => lines[line] = pick(rng, META_LINES).to_string(),
            1 if !lines.is_empty() => {
                let chars: Vec<char> = lines[line].chars().collect();
                let digits: Vec<usize> = (0..chars.len())
                    .filter(|&i| chars[i].is_ascii_digit())
                    .collect();
                if !digits.is_empty() {
                    let at = *pick(rng, &digits);
                    let mut chars = chars;
                    chars[at] = char::from(b'0' + rng.below(10) as u8);
                    lines[line] = chars.into_iter().collect();
                }
            }
            2 if !lines.is_empty() => {
                if let Some((key, values)) = lines[line].split_once('=') {
                    let mut values: Vec<String> = values.split(',').map(str::to_string).collect();
                    let at = rng.below(values.len());
                    values[at] = pick(rng, META_NUMBERS).to_string();
                    lines[line] = format!("{key}= {}", values.join(","));
                }
            }
            3 if !lines.is_empty() => {
                lines.remove(line);
            }
            4 if !lines.is_empty() => {
                let copy = lines[line].clone();
                lines.insert(line, copy);
            }
            5 => {
                let joined = lines.join("\n");
                let keep = rng.below(joined.len() + 1);
                lines = joined[..keep].lines().map(str::to_string).collect();
            }
            _ => {
                let token = pick(rng, META_TOKENS);
                let joined = lines.join("\n");
                let at = rng.below(joined.len() + 1);
                let spliced = format!("{}{token}{}", &joined[..at], &joined[at..]);
                lines = spliced.lines().map(str::to_string).collect();
            }
        }
    }
    lines.join("\n")
}

fn meta_path(store: &Path) -> PathBuf {
    let mut path = store.as_os_str().to_owned();
    path.push(".meta");
    PathBuf::from(path)
}

fn store_bytes(store: &Path) -> usize {
    ["", ".crc", ".meta"]
        .iter()
        .map(|ext| {
            let mut path = store.as_os_str().to_owned();
            path.push(ext);
            std::fs::metadata(PathBuf::from(path)).map_or(0, |m| m.len() as usize)
        })
        .sum()
}

#[test]
fn every_meta_header_opens_or_is_refused() {
    let dir = std::env::temp_dir().join(format!("ss_decoder_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("s.ws");
    let meta = Meta::new(vec![4, 3], vec![2, 2], 8, 1);
    {
        let mut ws = WsFile::create(&store, meta.clone()).unwrap();
        for (i, idx) in shiftsplit::array::MultiIndexIter::new(&[16, 8]).enumerate() {
            ws.store.write(&idx, i as f64 - 40.5);
        }
        ws.sync().unwrap();
    }
    let valid = meta.to_text();
    let mut texts: Vec<String> = [
        "levels  = 70,4",
        "levels  = 40,40",
        "axis    = 9",
        "tiles   = 0,2",
        "tiles   = 5,3",
    ]
    .iter()
    .map(|line| {
        let key = line.split_whitespace().next().unwrap();
        valid
            .lines()
            .map(|l| if l.starts_with(key) { *line } else { l })
            .collect::<Vec<_>>()
            .join("\n")
    })
    .collect();
    texts.push(valid.clone());
    let mut rng = SplitMix64::new(0x3e7a);
    while texts.len() < 2_000 {
        texts.push(mutate_meta(&mut rng, &valid));
    }

    let (mut accepted, mut opened) = (0, 0);
    for text in &texts {
        let (outcome, largest) = tracked(|| Meta::from_text(text));
        let Ok(parsed) = outcome else {
            panic!("Meta::from_text panicked on {text:?}");
        };
        assert!(largest <= allocation_cap(text.len()), "{text:?}");
        let Ok(parsed) = parsed else { continue };
        accepted += 1;
        assert_eq!(
            Meta::from_text(&parsed.to_text()).ok(),
            Some(parsed.clone())
        );

        std::fs::write(meta_path(&store), text).unwrap();
        let (outcome, largest) = tracked(|| {
            let ws = WsFile::open(&store)?;
            let no_growth = |_: usize, _: usize| -> FileBlockStore { unreachable!("no append") };
            let app = Appender::resume(ws.store, ws.meta.axis, ws.meta.filled, no_growth);
            Ok::<_, shiftsplit::storage::StorageError>(app.levels().to_vec())
        });
        let Ok(seated) = outcome else {
            panic!("opening a store under {text:?} panicked");
        };
        assert!(largest <= allocation_cap(store_bytes(&store)), "{text:?}");
        if let Ok(levels) = seated {
            assert_eq!(levels, parsed.levels);
            opened += 1;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        accepted >= 150 && opened >= 100,
        "{accepted} accepted, {opened} opened"
    );
}

/// Reply text a server writes, then hostile numbers and fragments.
const REPLY_NUMBERS: &[&str] = &[
    "1e999",
    "-1e999",
    "1e-400",
    "-0",
    "18446744073709551616",
    "-1",
    "170141183460469231731687303715884105728",
    "0.5",
    "null",
    "\"7\"",
];

const REPLY_TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "-", "0", "e", ".", "\\u", "\\", "null", "true",
];

fn valid_reply(rng: &mut SplitMix64) -> String {
    let id = (rng.below(4) != 0).then(|| rng.next_u64() as i128 - (1 << 40));
    let value = rng.range(-1e6, 1e6);
    match rng.below(4) {
        0 => proto::ok_response(id, value),
        1 => proto::ok_response_traced(id, Some(1 + rng.below(1000) as u64), value),
        2 => {
            let tiles: Vec<(usize, f64)> = (0..rng.below(8))
                .map(|_| (rng.below(1 << 20), rng.range(-1.0, 1.0)))
                .collect();
            proto::ok_response_tiled(id, None, value, Some(&tiles))
        }
        _ => proto::err_response(id, "bad_request", "pos[0] = 9 \"out\" of\trange \\"),
    }
}

fn mutate_reply(rng: &mut SplitMix64, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(chars.len() + 1);
        let end = (at + rng.below(8)).min(chars.len());
        match rng.below(5) {
            0 => {
                chars.drain(at..end);
            }
            1 => {
                chars.splice(at..at, pick(rng, REPLY_TOKENS).chars());
            }
            2 => {
                let span: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
            3 => {
                // A number rewritten: the next run of digits from `at`.
                let start = (at..chars.len()).find(|&i| chars[i].is_ascii_digit());
                if let Some(start) = start {
                    let stop = (start..chars.len())
                        .find(|&i| !matches!(chars[i], '0'..='9' | '.' | 'e' | '-'))
                        .unwrap_or(chars.len());
                    chars.splice(start..stop, pick(rng, REPLY_NUMBERS).chars());
                }
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// A parsed reply written back the way a server writes it.
fn render(reply: &Response) -> String {
    match &reply.result {
        Ok(value) => proto::ok_response_tiled(reply.id, None, *value, reply.tiles.as_deref()),
        Err((kind, message)) => proto::err_response(reply.id, kind, message),
    }
}

#[test]
fn every_reply_line_parses_or_is_refused() {
    let wide = (0..10_000)
        .map(|t| format!("[{t},0.5]"))
        .collect::<Vec<_>>();
    let mut lines = vec![
        r#"{"id":1,"ok":true,"value":1e999}"#.to_string(),
        r#"{"id":1,"ok":true,"value":2,"tiles":[[0,-1e999]]}"#.to_string(),
        r#"{"id":1,"ok":true,"value":2,"tiles":[[18446744073709551616,1]]}"#.to_string(),
        r#"{"id":1,"ok":true,"value":2,"tiles":[[1.5,1]]}"#.to_string(),
        format!(r#"{{"ok":true,"value":0,"tiles":[{}]}}"#, wide.join(",")),
        format!(r#"{{"ok":true,"value":{}}}"#, "[".repeat(10_000)),
        r#"{"ok":false}"#.to_string(),
    ];
    let mut rng = SplitMix64::new(0x2e51);
    while lines.len() < 5_000 {
        let line = valid_reply(&mut rng);
        lines.push(if rng.below(4) == 0 {
            line
        } else {
            mutate_reply(&mut rng, &line)
        });
    }
    let mut accepted = 0;
    for line in &lines {
        let (outcome, largest) = tracked(|| proto::parse_response(line));
        let Ok(parsed) = outcome else {
            panic!("parse_response panicked on {line}");
        };
        assert!(largest <= allocation_cap(line.len()), "{line}");
        if let Ok(reply) = parsed {
            let again = render(&reply);
            assert_eq!(
                proto::parse_response(&again),
                Ok(reply),
                "{line} -> {again}"
            );
            accepted += 1;
        }
    }
    assert!(accepted >= 1_000, "{accepted} of {} accepted", lines.len());
}

/// Capacities a v3 block can have, short tail buckets included.
const CAPACITIES: &[usize] = &[1, 4, 16, 32, 40, 64, 256];

/// A seeded tile image: each bucket absent, full, one value, or a lone
/// `-0.0` (present: its bits are not `+0.0`'s).
fn valid_tile(rng: &mut SplitMix64) -> Vec<f64> {
    let mut dense = vec![0.0; *pick(rng, CAPACITIES)];
    for chunk in dense.chunks_mut(16) {
        let at = rng.below(chunk.len());
        match rng.below(4) {
            0 => {}
            1 => chunk.fill_with(|| rng.range(-9.0, 9.0)),
            2 => chunk[at] = rng.range(-9.0, 9.0),
            _ => chunk[at] = -0.0,
        }
    }
    dense
}

/// Byte offset of bucket `b`'s values in `payload`, counting the present
/// buckets before it.
fn bucket_at(payload: &[u8], capacity: usize, b: usize) -> usize {
    let present = |i: usize| payload[i / 8] & (1 << (i % 8)) != 0;
    let lens = (0..b)
        .filter(|&i| present(i))
        .map(|i| bucket_len(capacity, i));
    bitmap_len(capacity) + 8 * lens.sum::<usize>()
}

fn bucket_len(capacity: usize, b: usize) -> usize {
    (capacity - b * bucket_for(capacity)).min(bucket_for(capacity))
}

/// One to two bit flips, truncations, extensions or bitmap rewrites: a
/// bucket bit set over inserted zeros, cleared with its bytes removed, a
/// present bucket zeroed, a bitmap byte replaced.
fn mutate_payload(rng: &mut SplitMix64, capacity: usize, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + rng.below(2) {
        let buckets = num_buckets(capacity);
        let b = rng.below(buckets);
        let whole = bytes.len() >= bitmap_len(capacity)
            && bytes.len() >= bucket_at(&bytes, capacity, buckets);
        let present = whole && bytes[b / 8] & (1 << (b % 8)) != 0;
        match rng.below(7) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            2 => bytes.extend((0..8 * (1 + rng.below(3))).map(|_| rng.next_u64() as u8)),
            3 if whole && !present => {
                let at = bucket_at(&bytes, capacity, b);
                bytes.splice(at..at, vec![0u8; 8 * bucket_len(capacity, b)]);
                bytes[b / 8] |= 1 << (b % 8);
            }
            4 if present => {
                let at = bucket_at(&bytes, capacity, b);
                bytes.drain(at..at + 8 * bucket_len(capacity, b));
                bytes[b / 8] &= !(1 << (b % 8));
            }
            5 if present => {
                let at = bucket_at(&bytes, capacity, b);
                bytes[at..at + 8 * bucket_len(capacity, b)].fill(0);
            }
            _ if !bytes.is_empty() => {
                let at = rng.below(bitmap_len(capacity).min(bytes.len()));
                bytes[at] = rng.next_u64() as u8;
            }
            _ => {}
        }
    }
    bytes
}

#[test]
fn every_sparse_payload_decodes_or_is_refused() {
    // Capacity 32: bucket 0 marked present over sixteen +0.0s (decodes to
    // the empty tile, which encodes to no bytes), and a bitmap with no
    // bucket (an all-zero block has no payload). Both are refused.
    let mut zero_bucket = vec![0b1];
    zero_bucket.extend([0u8; 128]);
    let mut inputs: Vec<(usize, Vec<u8>)> = vec![(32, zero_bucket), (32, vec![0]), (256, vec![])];
    let mut rng = SplitMix64::new(0x5b3);
    while inputs.len() < 4_000 {
        let dense = valid_tile(&mut rng);
        let capacity = dense.len();
        let valid = sparse::encode(&SparseTile::from_dense(&dense));
        inputs.push(if rng.below(4) == 0 {
            (capacity, valid)
        } else {
            (capacity, mutate_payload(&mut rng, capacity, valid))
        });
    }
    let mut accepted = 0;
    for (capacity, bytes) in &inputs {
        let (outcome, largest) = tracked(|| sparse::decode(bytes, *capacity));
        let Ok(decoded) = outcome else {
            panic!("sparse::decode panicked on {bytes:?} (capacity {capacity})");
        };
        assert!(largest <= allocation_cap(bytes.len()), "{bytes:?}");
        if let Ok(tile) = decoded {
            assert_eq!(
                &sparse::encode(&tile),
                bytes,
                "accepted payload must round-trip (capacity {capacity})"
            );
            accepted += 1;
        }
    }
    assert!(accepted >= 1_000, "{accepted} of {} accepted", inputs.len());
    assert!(inputs.len() - accepted >= 1_000);
}

const V3_BLOCKS: usize = 12;
const V3_CAPACITY: usize = 32;
const V3_DIR_END: usize = 32 + 16 * V3_BLOCKS;

/// A small v3 store: 12 blocks of two buckets, all-zero, one-bucket, full
/// and `-0.0`-only images, with a relocation's garbage left in the heap.
fn v3_store(path: &Path) {
    let mut store =
        FileBlockStore::create_v3(path, V3_CAPACITY, V3_BLOCKS, IoStats::new()).unwrap();
    let mut rng = SplitMix64::new(0x3b1c);
    for id in 0..V3_BLOCKS {
        let mut image = vec![0.0; V3_CAPACITY];
        match id % 4 {
            0 => {}
            1 => image[rng.below(16)] = rng.range(-9.0, 9.0),
            2 => image.fill_with(|| rng.range(-9.0, 9.0)),
            _ => image[16 + rng.below(16)] = -0.0,
        }
        store.try_write_block(id, &image).unwrap();
    }
    // Block 1 grows past its allocation and moves.
    store.try_write_block(1, &vec![1.5; V3_CAPACITY]).unwrap();
    store.sync().unwrap();
}

/// One to two header or directory edits: bit flips, field rewrites,
/// entries copied over each other, the file cut short or extended.
fn mutate_v3(rng: &mut SplitMix64, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + rng.below(2) {
        let len = bytes.len() as u64;
        let entry = 32 + 16 * rng.below(V3_BLOCKS);
        let other = 32 + 16 * rng.below(V3_BLOCKS);
        let field =
            |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        match rng.below(7) {
            0 => {
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(V3_DIR_END.min(bytes.len()));
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            1 if bytes.len() >= V3_DIR_END => {
                let (at, width) = *pick(rng, &[(8, 4), (12, 4), (16, 8), (24, 8)]);
                let choices = [0, 1, 2, 4, 11, 13, 16, 32, 64, u32::MAX as u64, u64::MAX];
                let value = pick(rng, &choices).to_le_bytes();
                bytes[at..at + width].copy_from_slice(&value[..width]);
            }
            2 if bytes.len() >= V3_DIR_END => {
                let choices = [
                    0,
                    1,
                    31,
                    V3_DIR_END as u64 - 1,
                    V3_DIR_END as u64,
                    len.saturating_sub(1),
                    len,
                    u64::MAX,
                    u64::MAX - 127,
                    field(&bytes, other),
                    rng.next_u64() % (len + 1),
                ];
                let offset = *pick(rng, &choices);
                bytes[entry..entry + 8].copy_from_slice(&offset.to_le_bytes());
            }
            3 if bytes.len() >= V3_DIR_END => {
                let at = entry + 8 + 4 * rng.below(2);
                let (payload, alloc) = (
                    field(&bytes, entry + 8) as u32,
                    (field(&bytes, entry + 8) >> 32) as u32,
                );
                let choices = [
                    0,
                    1,
                    128,
                    129,
                    payload.wrapping_add(1),
                    alloc.wrapping_add(1),
                    u32::MAX,
                ];
                bytes[at..at + 4].copy_from_slice(&pick(rng, &choices).to_le_bytes());
            }
            4 if bytes.len() >= V3_DIR_END => {
                let copy: [u8; 16] = bytes[other..other + 16].try_into().unwrap();
                bytes[entry..entry + 16].copy_from_slice(&copy);
            }
            5 => bytes.truncate(rng.below(bytes.len() + 1)),
            _ => bytes.extend((0..1 + rng.below(200)).map(|_| rng.next_u64() as u8)),
        }
    }
    bytes
}

/// Opens the v3 store at `path`, reads every block and writes each
/// readable one back; the count of readable blocks.
fn reopen_and_rewrite(path: &Path) -> Result<usize, StorageError> {
    let mut store = FileBlockStore::open_v3(path, V3_CAPACITY, V3_BLOCKS, IoStats::new())?;
    let mut image = vec![0.0; V3_CAPACITY];
    let mut readable = 0;
    for id in 0..V3_BLOCKS {
        if store.try_read_block(id, &mut image).is_ok() {
            store.try_write_block(id, &image)?;
            readable += 1;
        }
    }
    store.sync()?;
    Ok(readable)
}

#[test]
fn every_v3_header_and_directory_opens_or_is_refused() {
    let dir = std::env::temp_dir().join(format!("ss_v3_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("s.ws");
    v3_store(&store);
    let valid = std::fs::read(&store).unwrap();
    let crc = std::fs::read(sidecar_path(&store)).unwrap();
    let mut files = vec![valid.clone(), valid[..V3_DIR_END - 1].to_vec()];
    let mut rng = SplitMix64::new(0x0b3d);
    while files.len() < 1_500 {
        files.push(mutate_v3(&mut rng, valid.clone()));
    }
    let (mut opened, mut refused, mut blocks_read) = (0, 0, 0);
    for bytes in &files {
        std::fs::write(&store, bytes).unwrap();
        std::fs::write(sidecar_path(&store), &crc).unwrap();
        let (outcome, largest) = tracked(|| reopen_and_rewrite(&store));
        let Ok(reopened) = outcome else {
            panic!("open_v3 panicked on a {}-byte file", bytes.len());
        };
        assert!(largest <= allocation_cap(bytes.len() + crc.len()));
        match reopened {
            Ok(readable) => {
                // Writing back what was read changes no byte: every
                // payload the store accepted is its canonical encoding.
                assert!(
                    &std::fs::read(&store).unwrap() == bytes,
                    "blocks file moved"
                );
                assert!(
                    std::fs::read(sidecar_path(&store)).unwrap() == crc,
                    "sidecar moved"
                );
                opened += 1;
                blocks_read += readable;
            }
            Err(_) => refused += 1,
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        opened >= 150 && refused >= 500 && blocks_read >= 1_500,
        "{opened} opened ({blocks_read} blocks read), {refused} refused"
    );
}

#[test]
fn every_shard_bound_list_builds_or_is_refused() {
    const MAX: usize = usize::MAX;
    let mut cases: Vec<(Vec<usize>, usize)> = vec![
        (vec![], 1),
        (vec![0], 1),
        (vec![0, 0], 1),
        (vec![1, 2], 1),
        (vec![0, 5], 0),
        (vec![0, MAX], 1),
        (vec![0, 3, 2], 1),
        (vec![0, 1, MAX], MAX),
    ];
    let mut rng = SplitMix64::new(0x5a4d);
    while cases.len() < 3_000 {
        let tiles = 1 + rng.below(300);
        let shards = 1 + rng.below(tiles.min(9));
        let replicas = *pick(&mut rng, &[0, 1, 1, 2, 3, MAX]);
        let mut bounds = ShardMap::even(tiles, shards, 1).unwrap().bounds().to_vec();
        if rng.below(4) != 0 {
            for _ in 0..1 + rng.below(2) {
                if bounds.is_empty() {
                    break;
                }
                let at = rng.below(bounds.len());
                match rng.below(5) {
                    0 => bounds[at] = *pick(&mut rng, &[0, 1, MAX, tiles, tiles + 1]),
                    1 => bounds[at] = bounds[at].wrapping_add(1),
                    2 => {
                        bounds.remove(at);
                    }
                    3 => bounds.insert(at, bounds[at]),
                    _ => bounds.truncate(at),
                }
            }
        }
        cases.push((bounds, replicas));
    }
    let mut accepted = 0;
    for (bounds, replicas) in &cases {
        let (outcome, largest) = tracked(|| {
            let map = ShardMap::from_bounds(bounds.clone(), *replicas)?;
            // An accepted map is safe to route with.
            let n = map.num_tiles();
            for tile in [0, n / 2, n - 1] {
                assert!(map.range(map.owner(tile)).contains(&tile));
            }
            Ok::<_, StorageError>(map)
        });
        let Ok(built) = outcome else {
            panic!("from_bounds panicked on {bounds:?} x {replicas}");
        };
        assert!(
            largest <= allocation_cap(8 * bounds.len() + 8),
            "{bounds:?}"
        );
        if let Ok(map) = built {
            assert_eq!((map.bounds(), map.replicas()), (&bounds[..], *replicas));
            let again = ShardMap::from_bounds(map.bounds().to_vec(), map.replicas());
            assert_eq!(again.ok(), Some(map));
            accepted += 1;
        }
    }
    assert!(accepted >= 1_000, "{accepted} of {} accepted", cases.len());
    assert!(cases.len() - accepted >= 1_000);
}
