//! Metrics plumbing shared by every subcommand.
//!
//! Every command accepts `--metrics-out FILE`: the store's [`IoStats`]
//! counters are folded into the process-wide [`ss_obs`] registry and the
//! whole registry — I/O counters, block-latency histograms, transform
//! phase spans, query/stream timings — is written as one `ss-metrics-v1`
//! JSON snapshot. Without the flag, commands keep their traditional
//! one-line `[blocks: …]` stderr summary. `ingest` additionally accepts
//! `--metrics-port N` to expose the registry live (Prometheus text /
//! JSON) while the transform runs.

use crate::args::Args;
use ss_storage::IoStats;

/// Folds `stats` into the global registry, then emits: the JSON snapshot
/// to `--metrics-out FILE` when the flag is present, otherwise the
/// one-line counter summary on stderr.
pub fn emit(args: &Args, stats: &IoStats) -> Result<(), String> {
    stats.publish(&ss_obs::global());
    match args.flag_opt("metrics-out") {
        Some(path) => write_snapshot(path),
        None => {
            eprintln!("[{}]", stats.snapshot());
            Ok(())
        }
    }
}

/// Like [`emit`] for commands that either have no [`IoStats`] (`stream`)
/// or never printed a counter line (`create`, `synopsis`): honours
/// `--metrics-out` and stays silent otherwise.
pub fn emit_quiet(args: &Args, stats: Option<&IoStats>) -> Result<(), String> {
    if let Some(stats) = stats {
        stats.publish(&ss_obs::global());
    }
    match args.flag_opt("metrics-out") {
        Some(path) => write_snapshot(path),
        None => Ok(()),
    }
}

fn write_snapshot(path: &str) -> Result<(), String> {
    let mut json = ss_obs::global().to_json();
    json.push('\n');
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("metrics written to {path}");
    Ok(())
}

/// Starts a background metrics endpoint when `--metrics-port N` is given.
/// Keep the returned guard alive for as long as the endpoint should serve;
/// it shuts down on drop. The endpoint runs windowed: a sliding interval
/// of recent histogram baselines (6 ticks of 10 s — roughly the last
/// minute) backs the `recent` p50/p99 views next to the lifetime numbers.
pub fn maybe_serve(args: &Args) -> Result<Option<ss_obs::MetricsServer>, String> {
    let Some(port) = args.get::<u16>("metrics-port")? else {
        return Ok(None);
    };
    let window =
        ss_obs::HistogramWindow::new(ss_obs::global(), std::time::Duration::from_secs(10), 6);
    let server = ss_obs::MetricsServer::bind_windowed(
        &format!("127.0.0.1:{port}"),
        ss_obs::global(),
        window,
    )
    .map_err(|e| format!("binding metrics port: {e}"))?;
    eprintln!("metrics: serving on http://{}/metrics", server.local_addr());
    Ok(Some(server))
}
