//! **E5 / Figure 13** — SHIFT-SPLIT in appending.
//!
//! Paper setup: the PRECIPITATION cube (8 × 8 spatial grid, time growing by
//! one 32-day month at a time for 45 years), appended in the wavelet
//! domain; per-append I/O in blocks for tile sizes 2 K / 4 K / 8 K. The
//! figure's signature is a low steady per-month cost with *spikes* at the
//! months where the time domain doubles (the expansion re-homes every
//! coefficient), spikes that matter less with larger tiles.
//!
//! Tile sizes: per-axis tile exponents `(3,3,2) = 256` coeffs = 2 KB,
//! `(3,3,3) = 512` = 4 KB, `(3,3,4) = 1024` = 8 KB — the paper's sizes
//! exactly.

use crate::{fmt_count, Table};
use ss_datagen::precipitation_month;
use ss_storage::{IoStats, MemBlockStore};
use ss_transform::{Appender, NsChainStore};

const MONTHS: usize = 540; // 45 years
const DAYS: usize = 32;

pub fn run(md: &mut String) {
    md.push_str("# E5 / Figure 13 — per-append I/O (blocks) over 45 years of monthly data\n\n");
    let tile_configs: [(&str, [u32; 3]); 3] =
        [("2KB", [3, 3, 2]), ("4KB", [3, 3, 3]), ("8KB", [3, 3, 4])];
    let mut per_month: Vec<Vec<u64>> = Vec::new();
    let mut totals = Vec::new();
    let mut expansions = 0usize;
    // Alternative representation: the non-standard hypercube chain (one
    // 8x8 cube per day; 512 B tiles). Appends are flat by construction.
    let chain_stats = IoStats::new();
    let cs2 = chain_stats.clone();
    let mut chain = NsChainStore::new(
        2,
        3,
        3,
        move |cap, blocks| MemBlockStore::new(cap, blocks, cs2.clone()),
        8,
        chain_stats.clone(),
    );
    let mut chain_costs: Vec<u64> = Vec::with_capacity(MONTHS);
    for month in 0..MONTHS {
        let chunk = precipitation_month(8, 8, DAYS, month, 45);
        let before = chain_stats.snapshot();
        for day in 0..DAYS {
            let grid = chunk.extract(&[0, 0, day], &[8, 8, 1]);
            let cube = ss_array::NdArray::from_vec(ss_array::Shape::cube(2, 8), grid.into_vec());
            chain.append(&cube);
        }
        chain_costs.push(chain_stats.snapshot().since(&before).blocks());
    }
    for (_, tiles) in &tile_configs {
        let stats = IoStats::new();
        let s2 = stats.clone();
        let mut app = Appender::new(
            &[3, 3, 5], // 8 x 8 x 32 initial domain (one month)
            tiles,
            2,
            move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone()),
            1 << 12,
            stats.clone(),
        );
        let mut costs = Vec::with_capacity(MONTHS);
        for month in 0..MONTHS {
            let chunk = precipitation_month(8, 8, DAYS, month, 45);
            let before = stats.snapshot();
            app.append(&chunk);
            costs.push(stats.snapshot().since(&before).blocks());
        }
        expansions = app.expansions();
        totals.push(stats.snapshot().blocks());
        per_month.push(costs);
    }

    // The full 540-row series as CSV (for plotting), then a summary table.
    md.push_str("## Per-month series (CSV)\n\n");
    md.push_str("```\n");
    md.push_str("month,blocks_2KB,blocks_4KB,blocks_8KB,blocks_ns_chain\n");
    for (m, (((a, b), c), ch)) in per_month[0]
        .iter()
        .zip(&per_month[1])
        .zip(&per_month[2])
        .zip(&chain_costs)
        .enumerate()
    {
        md.push_str(&format!("{m},{a},{b},{c},{ch}\n"));
    }
    md.push_str("```\n\n");

    md.push_str("## Summary\n\n");
    let mut table = Table::new(&[
        "tile",
        "total blocks",
        "median month",
        "max month (expansion spike)",
        "spike/median",
    ]);
    for (i, (name, _)) in tile_configs.iter().enumerate() {
        let mut sorted = per_month[i].clone();
        sorted.sort_unstable();
        let median = sorted[MONTHS / 2];
        let max = *sorted.last().unwrap();
        table.row(&[
            name,
            &fmt_count(totals[i]),
            &fmt_count(median),
            &fmt_count(max),
            &format!("{:.1}x", max as f64 / median.max(1) as f64),
        ]);
    }
    {
        let mut sorted = chain_costs.clone();
        sorted.sort_unstable();
        let median = sorted[MONTHS / 2];
        let max = *sorted.last().unwrap();
        table.row(&[
            &"ns-chain (512B)",
            &fmt_count(chain_costs.iter().sum()),
            &fmt_count(median),
            &fmt_count(max),
            &format!("{:.1}x", max as f64 / median.max(1) as f64),
        ]);
    }
    table.write(md);
    md.push_str(&format!(
        "domain expansions over {MONTHS} months: {expansions} (standard form);\n"
    ));
    md.push_str("the non-standard hypercube chain needs none — its appends are flat.\n");
    md.push_str("\nExpected shape (paper Fig. 13): flat monthly cost with spikes at the\n");
    md.push_str("domain-doubling months; larger tiles reduce block counts throughout and\n");
    md.push_str("soften the spikes.\n");
}
