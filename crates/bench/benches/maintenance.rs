//! Criterion micro-benchmarks: wavelet-domain maintenance operations
//! (batch updates, appends, domain expansion).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ss_array::{NdArray, Shape};
use ss_core::tiling::StandardTiling;
use ss_maintain::{update_boxes_standard, FlushMode};
use ss_storage::{wstore::mem_store, IoStats, MemBlockStore};
use ss_transform::Appender;

fn bench_updates(c: &mut Criterion) {
    let side = 256usize;
    let n = [8u32, 8];
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| (idx[0] + idx[1]) as f64);
    let t = ss_core::standard::forward_to(&data);
    let mut group = c.benchmark_group("maintenance");
    group.sample_size(20);

    let delta = NdArray::from_fn(Shape::new(&[30, 50]), |idx| (idx[0] * idx[1]) as f64 * 0.01);
    group.throughput(Throughput::Elements(delta.len() as u64));
    group.bench_function("update_box_30x50_in_256x256", |b| {
        let mut cs = mem_store(StandardTiling::new(&n, &[2; 2]), 1 << 12, IoStats::new());
        for idx in ss_array::MultiIndexIter::new(&[side, side]) {
            cs.write(&idx, t.get(&idx));
        }
        let one = [(vec![13, 77], delta.clone())];
        b.iter(|| update_boxes_standard(&mut cs, &n, &one, FlushMode::Exact))
    });

    group.bench_function("append_month_8x8x32", |b| {
        let chunk = NdArray::from_fn(Shape::new(&[8, 8, 32]), |idx| {
            (idx[0] + idx[1] + idx[2]) as f64
        });
        b.iter(|| {
            let stats = IoStats::new();
            let s2 = stats.clone();
            let mut app = Appender::new(
                &[3, 3, 5],
                &[2, 2, 2],
                2,
                move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone()),
                1 << 10,
                stats,
            );
            for _ in 0..4 {
                app.append(&chunk);
            }
            app.expansions()
        })
    });

    group.bench_function("expand_64x1024_domain", |b| {
        // One forced expansion of a filled 64x1024 store.
        let chunk = NdArray::from_fn(Shape::new(&[64, 1024]), |idx| (idx[0] ^ idx[1]) as f64);
        b.iter(|| {
            let stats = IoStats::new();
            let s2 = stats.clone();
            let mut app = Appender::new(
                &[6, 10],
                &[2, 3],
                1,
                move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone()),
                1 << 10,
                stats,
            );
            app.append(&chunk);
            app.append(&chunk); // doubles the domain
            app.expansions()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
