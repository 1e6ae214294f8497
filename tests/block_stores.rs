//! Block-store differential: every store and decorator this workspace can
//! put under a buffer pool, held to one oracle — the bits that were written.
//!
//! The same seeded tile images (dense, sparse, all-zero, `-0.0`, one
//! subnormal) go into `MemBlockStore`, `FileBlockStore` v2 and v3 (nothing
//! thresholded away: the block store itself never drops a coefficient),
//! each also wrapped in the test-support devices as `Fault(rate 0)<_>` and
//! `Throttled(0)<_>`.
//! Every composition must return identical bits through
//!
//! * `try_read_block` on a shared reference,
//! * an exclusive `CoeffStore`,
//! * a 2-shard `SharedCoeffStore` read from two threads,
//!
//! with equal `block_reads`. Then one flipped payload byte per file layout
//! must fail that block's read with `Checksum`, leave every other block
//! readable, and be the scrub's only finding — v2 and v3 alike, because one
//! verified read serves both layouts and the scrub.
//!
//! The two test-support devices (`tests/support/{fault,throttle}.rs`) are
//! unit-tested here and nowhere else, so their tests run once: a zero-rate
//! fault device is transparent, its fault stream is pinned per seed, an
//! injected failure is a typed `Io` error, torn writes and bit flips do
//! what they model, and the throttle sleeps.
//!
//! Tier-1 (`cargo test -q` at the root) runs this in well under a second.

use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::core::TilingMap;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::storage::sparse::{V3_DIR_ENTRY_LEN, V3_HEADER_LEN};
use shiftsplit::storage::{
    BlockStore, CoeffStore, FileBlockStore, IoStats, MemBlockStore, SharedCoeffStore, StorageError,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[allow(dead_code)]
#[path = "support/fault.rs"]
mod fault;
#[allow(dead_code)]
#[path = "support/throttle.rs"]
mod throttle;

use fault::{FaultConfig, FaultInjectingBlockStore};
use throttle::ThrottledBlockStore;

fn tiling() -> StandardTiling {
    StandardTiling::new(&[5, 4], &[2, 3])
}

/// One image per tile, cycling through the five kinds.
fn images(map: &StandardTiling) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(0xB10C);
    let cap = map.block_capacity();
    (0..map.num_tiles())
        .map(|id| {
            let mut image = vec![0.0; cap];
            match id % 5 {
                0 => image.iter_mut().for_each(|v| *v = rng.range(-1e3, 1e3)),
                1 => image[(id * 7) % cap] = rng.range(-1.0, 1.0),
                2 => {}
                3 => image[cap - 1] = -0.0,
                _ => image[id % cap] = f64::from_bits(1), // smallest subnormal
            }
            image
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ss_block_stores_{name}_{}", std::process::id()))
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(shiftsplit::storage::file::sidecar_path(path));
}

/// What one composition returned: every block's bits as the three read
/// fronts saw them, and the block reads each front cost.
#[derive(Debug, PartialEq)]
struct Readings {
    direct: Vec<Vec<u64>>,
    exclusive: Vec<Vec<u64>>,
    shared: Vec<Vec<u64>>,
    block_reads: [u64; 3],
}

fn readings<S: BlockStore + Send + Sync>(mut store: S, stats: IoStats) -> Readings {
    let map = tiling();
    let (cap, tiles) = (map.block_capacity(), map.num_tiles());
    for (id, image) in images(&map).iter().enumerate() {
        store.try_write_block(id, image).unwrap();
    }

    stats.reset();
    let mut buf = vec![0.0; cap];
    let direct = (0..tiles)
        .map(|id| {
            store.try_read_block(id, &mut buf).unwrap();
            bits(&buf)
        })
        .collect();
    let direct_reads = stats.snapshot().block_reads;

    // A 4-frame cache walked tile by tile: every tile is one miss.
    stats.reset();
    let mut exclusive_store = CoeffStore::new(tiling(), store, 4, stats.clone());
    let exclusive = (0..tiles)
        .map(|tile| {
            (0..cap)
                .map(|slot| exclusive_store.read_at(tile, slot).to_bits())
                .collect()
        })
        .collect();
    let exclusive_reads = stats.snapshot().block_reads;
    let (_, store) = exclusive_store.into_parts();

    // Two shards, two threads, each reading the tiles of its own shard.
    stats.reset();
    let shared_store = SharedCoeffStore::new(tiling(), store, 4, 2, stats.clone());
    let mut shared = vec![Vec::new(); tiles];
    std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|t| {
                let shared_store = &shared_store;
                scope.spawn(move || {
                    (t..tiles)
                        .step_by(2)
                        .map(|tile| (tile, bits(&shared_store.read_tile(tile))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for half in halves {
            for (tile, image) in half.join().expect("reader thread") {
                shared[tile] = image;
            }
        }
    });
    let shared_reads = stats.snapshot().block_reads;

    Readings {
        direct,
        exclusive,
        shared,
        block_reads: [direct_reads, exclusive_reads, shared_reads],
    }
}

const WRAPPERS: [&str; 3] = ["bare", "fault", "throttle"];

/// The three compositions over one base store, in [`WRAPPERS`] order: bare,
/// under a silent fault injector, under a zero-latency throttle.
fn compositions<S: BlockStore + Send + Sync>(make: impl Fn(&str, IoStats) -> S) -> Vec<Readings> {
    fn one<S, W: BlockStore + Send + Sync>(
        base: impl FnOnce(IoStats) -> S,
        wrap: impl FnOnce(S) -> W,
    ) -> Readings {
        let stats = IoStats::new();
        readings(wrap(base(stats.clone())), stats)
    }
    vec![
        one(|stats| make(WRAPPERS[0], stats), |store| store),
        one(
            |stats| make(WRAPPERS[1], stats),
            |store| FaultInjectingBlockStore::new(store, FaultConfig::default()),
        ),
        one(
            |stats| make(WRAPPERS[2], stats),
            |store| ThrottledBlockStore::symmetric(store, Duration::ZERO),
        ),
    ]
}

/// `FileBlockStore::{create, create_v3, open, open_v3}`.
type FileCtor = fn(&Path, usize, usize, IoStats) -> Result<FileBlockStore, StorageError>;

fn on_disk(layout: &str, create: FileCtor) -> Vec<Readings> {
    let map = tiling();
    let path = |name: &str| scratch(&format!("{layout}_{name}"));
    let all = compositions(|name, stats| {
        create(&path(name), map.block_capacity(), map.num_tiles(), stats).unwrap()
    });
    for name in WRAPPERS {
        remove(&path(name));
    }
    all
}

#[test]
fn every_composition_returns_the_written_bits_at_the_same_cost() {
    let map = tiling();
    let written: Vec<Vec<u64>> = images(&map).iter().map(|image| bits(image)).collect();
    let tiles = map.num_tiles() as u64;
    assert!(
        tiles >= 10 && map.block_capacity() >= 32,
        "every image kind, several buckets"
    );
    let oracle = Readings {
        direct: written.clone(),
        exclusive: written.clone(),
        shared: written,
        block_reads: [tiles; 3],
    };
    let mem =
        compositions(|_, stats| MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats));
    let all = [
        ("mem", mem),
        ("v2", on_disk("v2", FileBlockStore::create)),
        ("v3", on_disk("v3", FileBlockStore::create_v3)),
    ];
    for (base, compositions) in &all {
        for (readings, wrapper) in compositions.iter().zip(WRAPPERS) {
            assert!(readings == &oracle, "{base} / {wrapper} disagrees");
        }
    }
}

#[test]
fn one_flipped_payload_byte_is_one_checksum_error_and_one_scrub_finding() {
    let map = tiling();
    let (cap, tiles) = (map.block_capacity(), map.num_tiles());
    let victim = 5; // a dense image (5 % 5 == 0): every byte of it is payload
    let layouts: [(&str, FileCtor, FileCtor); 2] = [
        ("v2", FileBlockStore::create, FileBlockStore::open),
        ("v3", FileBlockStore::create_v3, FileBlockStore::open_v3),
    ];
    for (layout, create, open) in layouts {
        let path = scratch(&format!("{layout}_flip"));
        let mut store = create(&path, cap, tiles, IoStats::new()).unwrap();
        for (id, image) in images(&map).iter().enumerate() {
            store.try_write_block(id, image).unwrap();
        }
        store.sync().unwrap();
        let sparse = store.sparse();
        drop(store);

        let mut bytes = std::fs::read(&path).unwrap();
        let payload_at = if sparse {
            // docs/FORMAT.md §8.2: the directory slot's first field.
            let slot = (V3_HEADER_LEN + victim as u64 * V3_DIR_ENTRY_LEN) as usize;
            u64::from_le_bytes(bytes[slot..slot + 8].try_into().unwrap()) as usize
        } else {
            victim * cap * 8
        };
        bytes[payload_at + 11] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let store = open(&path, cap, tiles, IoStats::new()).unwrap();
        let mut buf = vec![0.0; cap];
        for (id, image) in images(&map).iter().enumerate() {
            match store.try_read_block(id, &mut buf) {
                Err(StorageError::Checksum { block, .. }) => {
                    assert_eq!((id, block), (victim, victim), "{layout}")
                }
                Ok(()) => {
                    assert_ne!(id, victim, "{layout}: the flipped block read clean");
                    assert_eq!(bits(&buf), bits(image), "{layout} block {id}");
                }
                Err(other) => panic!("{layout} block {id}: {other:?}"),
            }
        }
        assert_eq!(store.scrub().unwrap().corrupt, vec![victim], "{layout}");
        remove(&path);
    }
}

// The test-support devices' own tests.

fn mem(blocks: usize) -> MemBlockStore {
    MemBlockStore::new(4, blocks, IoStats::new())
}

#[test]
fn zero_rates_are_transparent() {
    let mut s = FaultInjectingBlockStore::new(mem(4), FaultConfig::default());
    let mut buf = [0.0; 4];
    s.try_write_block(1, &[1.0, 2.0, 3.0, 4.0]).unwrap();
    s.try_read_block(1, &mut buf).unwrap();
    assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn fault_sequence_is_deterministic_per_seed() {
    let run = |seed| {
        let s = FaultInjectingBlockStore::new(mem(4), FaultConfig::read_errors(0.5, seed));
        let mut buf = [0.0; 4];
        (0..64)
            .map(|i| s.try_read_block(i % 4, &mut buf).is_err())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds fault differently");
    assert!(run(42).iter().any(|&f| f) && run(42).iter().any(|&f| !f));
}

#[test]
fn injected_read_errors_are_typed_io_errors() {
    let s = FaultInjectingBlockStore::new(mem(2), FaultConfig::read_errors(1.0, 7));
    let mut buf = [0.0; 4];
    match s.try_read_block(1, &mut buf) {
        Err(StorageError::Io { context, .. }) => {
            assert_eq!(context, "injected read fault on block 1")
        }
        other => panic!("expected an injected i/o error, got {other:?}"),
    }
}

#[test]
fn torn_write_persists_half_a_block_then_fails() {
    let cfg = FaultConfig {
        torn_write_rate: 1.0,
        ..FaultConfig::default()
    };
    let mut s = FaultInjectingBlockStore::new(mem(2), cfg);
    assert!(s.try_write_block(0, &[1.0, 2.0, 3.0, 4.0]).is_err());
    let inner = s.into_inner();
    let mut buf = [9.0; 4];
    inner.try_read_block(0, &mut buf).unwrap();
    assert_eq!(buf, [1.0, 2.0, 0.0, 0.0], "tail must be torn off");
}

#[test]
fn bit_flip_corrupts_exactly_one_bit() {
    let cfg = FaultConfig {
        bit_flip_rate: 1.0,
        ..FaultConfig::default()
    };
    let mut s = FaultInjectingBlockStore::new(mem(2), cfg);
    let orig = [1.0, 2.0, 3.0, 4.0];
    s.try_write_block(0, &orig).unwrap();
    let mut buf = [0.0; 4];
    s.try_read_block(0, &mut buf).unwrap();
    let flipped_bits: u32 = orig
        .iter()
        .zip(&buf)
        .map(|(a, b)| (a.to_bits() ^ b.to_bits()).count_ones())
        .sum();
    assert_eq!(flipped_bits, 1);
}

#[test]
fn serial_fault_sequence_is_the_mut_era_sequence() {
    // The first 32 outcomes for this seed, captured from the commit
    // whose RNG was a plain `u64` stepped through `&mut self`: the
    // atomic Weyl counter hands a serial caller the same SplitMix64
    // stream, draw for draw (roll, then slot and bit of each flip).
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Injected,
        Clean,
        Flip(usize, u32),
    }
    use Outcome::*;
    #[rustfmt::skip]
    const PARENT: [Outcome; 32] = [
        Clean, Flip(0, 19), Injected, Flip(2, 25), Clean, Clean, Flip(0, 50), Injected,
        Injected, Injected, Injected, Clean, Clean, Flip(0, 11), Flip(0, 53), Clean,
        Flip(0, 47), Flip(1, 62), Clean, Flip(1, 26), Clean, Clean, Flip(0, 48), Flip(0, 47),
        Flip(0, 34), Clean, Clean, Clean, Injected, Flip(2, 25), Injected, Clean,
    ];
    let cfg = FaultConfig {
        bit_flip_rate: 0.4,
        ..FaultConfig::read_errors(0.3, 0xC0FFEE)
    };
    let mut s = FaultInjectingBlockStore::new(mem(4), cfg);
    let orig = [1.0f64, 2.0, 3.0, 4.0];
    for id in 0..4 {
        s.try_write_block(id, &orig).unwrap(); // rate-0 rolls draw nothing
    }
    let outcomes: Vec<Outcome> = (0..32)
        .map(|i| {
            let mut buf = [0.0; 4];
            if s.try_read_block(i % 4, &mut buf).is_err() {
                return Injected;
            }
            let diff = |k: usize| buf[k].to_bits() ^ orig[k].to_bits();
            match (0..4).find(|&k| diff(k) != 0) {
                None => Clean,
                Some(k) => Flip(k, diff(k).trailing_zeros()),
            }
        })
        .collect();
    assert_eq!(outcomes, PARENT);
}

#[test]
fn transfers_pass_through_unchanged() {
    let mut s = ThrottledBlockStore::symmetric(mem(4), Duration::ZERO);
    s.try_write_block(1, &[1.0, 2.0, 3.0, 4.0]).unwrap();
    let mut buf = [0.0; 4];
    s.try_read_block(1, &mut buf).unwrap();
    assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn reads_take_at_least_the_configured_latency() {
    let s = ThrottledBlockStore::new(mem(2), Duration::from_millis(5), Duration::ZERO);
    let mut buf = [0.0; 4];
    let t0 = Instant::now();
    s.try_read_block(0, &mut buf).unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(5));
}
