//! **E6 / §6.3** — stream synopsis update cost vs buffer size.
//!
//! The paper's third experiment (its figure is truncated in our source
//! text, but §6 promises "the significant improvement in the update cost
//! for maintaining a wavelet synopsis in a data stream application by
//! employing additional memory as buffer"). Result 3's claim: per-item
//! cost drops from `O(log N)` to `O(1 + log(N/B)/B)` with a `B`-item
//! buffer, with **identical** synopsis quality at buffer boundaries.
//!
//! We stream 2^20 sensor readings, K = 64, and sweep the buffer size,
//! reporting measured per-item coefficient operations and the final
//! synopsis SSE against the offline best-K floor.

use crate::{fmt_count, fmt_f, Table};
use ss_datagen::sensor_stream;
use ss_stream::stream1d::reconstruct_from_entries;
use ss_stream::{offline_best_k_sse, sse, BufferedStream, PerItemStream};

const N_LEVELS: u32 = 20;
const K: usize = 64;

pub fn run(md: &mut String) {
    let n = 1usize << N_LEVELS;
    md.push_str(&format!(
        "# E6 — per-item update cost vs buffer size (stream of 2^{N_LEVELS}, K={K})\n\n"
    ));
    let data = sensor_stream(n, 7);
    let best = offline_best_k_sse(&data, K);

    let mut table = Table::new(&[
        "method",
        "buffer B",
        "total coeff ops",
        "ops/item",
        "synopsis SSE",
        "SSE / offline-best-K",
    ]);

    let mut per_item = PerItemStream::new(K, N_LEVELS);
    for &x in &data {
        per_item.push(x);
    }
    let approx = reconstruct_from_entries(per_item.average(), &per_item.entries(), n);
    let e = sse(&data, &approx);
    table.row(&[
        &"per-item (Gilbert et al.)",
        &1,
        &fmt_count(per_item.work()),
        &fmt_f(per_item.work() as f64 / n as f64, 2),
        &fmt_f(e, 1),
        &fmt_f(e / best, 4),
    ]);

    for b in [1u32, 2, 4, 6, 8, 10, 12] {
        let mut s = BufferedStream::new(K, b, N_LEVELS);
        for &x in &data {
            s.push(x);
        }
        let approx = reconstruct_from_entries(s.average(), &s.entries(), n);
        let e = sse(&data, &approx);
        table.row(&[
            &"shift-split buffered",
            &(1usize << b),
            &fmt_count(s.work()),
            &fmt_f(s.work() as f64 / n as f64, 2),
            &fmt_f(e, 1),
            &fmt_f(e / best, 4),
        ]);
    }
    table.write(md);
    md.push_str(&format!("offline best-K SSE floor: {}\n", fmt_f(best, 1)));
    md.push_str("\nExpected shape (Result 3): ops/item ≈ log N for the baseline, falling\n");
    md.push_str("towards ≈ 1 + log(N/B)/B as the buffer grows, with SSE identical to the\n");
    md.push_str("offline best-K floor for every buffer size.\n");
}
