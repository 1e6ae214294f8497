//! The metric registry and its exporters.

use crate::histogram::{bucket_upper, Histogram, HistogramSnapshot, NUM_BUCKETS};
use crate::json::Value;
use crate::span::Span;
use crate::window::HistogramWindow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Version tag of the JSON snapshot schema (see [`Registry::to_json`]).
pub const SCHEMA: &str = "ss-metrics-v1";

/// A monotonically increasing named count.
#[derive(Clone, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the count (used when folding an external snapshot,
    /// e.g. [`IoSnapshot`](../../ss_storage/struct.IoSnapshot.html), into
    /// the registry).
    #[inline]
    pub fn store(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A named value that can go up and down.
#[derive(Clone, Default)]
pub struct Gauge {
    v: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Default)]
struct Inner {
    // BTreeMap keeps export order stable and diffs deterministic.
    metrics: RwLock<BTreeMap<String, Metric>>,
}

/// A set of named metrics, cheaply clonable (clones share state).
///
/// Handle lookup ([`counter`](Registry::counter) etc.) takes a short
/// registry lock; the returned handles record lock-free, so hot paths
/// should resolve their handles once and keep them. Metric names are
/// dotted paths (`transform.read_ns`) — the dots express the phase
/// hierarchy and are mangled to `_` in Prometheus exposition.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

/// The process-wide registry used by [`crate::timed`] and the default
/// instrumentation throughout the workspace.
pub fn global() -> Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new).clone()
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.inner.metrics.read().unwrap().get(name) {
            return m.clone();
        }
        let mut metrics = self.inner.metrics.write().unwrap();
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Records `ns` into histogram `name`.
    pub fn record_ns(&self, name: &str, ns: u64) {
        self.histogram(name).record(ns);
    }

    /// Times `f`, recording the elapsed nanoseconds into histogram `name`.
    pub fn timed<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record_ns(name, start.elapsed().as_nanos() as u64);
        r
    }

    /// Starts a guard that records its lifetime into histogram `name`
    /// when dropped — the explicit form of [`timed`](Registry::timed) for
    /// spans that cross scope boundaries.
    pub fn span(&self, name: &str) -> Span {
        Span::new(self.histogram(name))
    }

    /// Removes every metric (tests).
    pub fn clear(&self) {
        self.inner.metrics.write().unwrap().clear();
    }

    /// Snapshots every registered histogram (name-sorted), the feed for
    /// [`HistogramWindow::tick`].
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let metrics = self.inner.metrics.read().unwrap();
        metrics
            .iter()
            .filter_map(|(name, m)| match m {
                Metric::Histogram(h) => Some((name.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }

    /// The JSON snapshot as a [`Value`] tree (`ss-metrics-v1` schema):
    ///
    /// ```json
    /// {
    ///   "schema": "ss-metrics-v1",
    ///   "counters":   {"io.block_reads": 7, ...},
    ///   "gauges":     {"maintain.tiles_dirty": 4, ...},
    ///   "histograms": {
    ///     "storage.block_read_ns": {
    ///       "count": 9, "sum": 1234, "max": 400,
    ///       "p50": 127, "p90": 255, "p99": 400,
    ///       "buckets": [[63, 2], [127, 4], [511, 3]]
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// `buckets` lists only non-empty buckets as
    /// `[inclusive upper bound, count]` pairs in ascending order.
    ///
    /// When `window` is given (and has ticked at least once over a
    /// histogram), that histogram's object gains a `"recent"` sub-object — `count`, `sum`, `max`, `p50`,
    /// `p90`, `p99` over roughly the last [`span_secs`] of traffic — and
    /// the document gains a top-level `"recent_window_s"`. Old consumers
    /// ignore the extra fields; the schema tag is unchanged.
    ///
    /// [`span_secs`]: HistogramWindow::span_secs
    pub fn to_json_value_windowed(&self, window: Option<&HistogramWindow>) -> Value {
        let metrics = self.inner.metrics.read().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), Value::from(c.get()))),
                Metric::Gauge(g) => gauges.push((name.clone(), Value::from(g.get()))),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let buckets: Vec<Value> = (0..NUM_BUCKETS)
                        .filter(|&i| s.buckets[i] > 0)
                        .map(|i| {
                            Value::Array(vec![
                                Value::from(bucket_upper(i)),
                                Value::from(s.buckets[i]),
                            ])
                        })
                        .collect();
                    let mut pairs = vec![
                        ("count".into(), Value::from(s.count)),
                        ("sum".into(), Value::from(s.sum)),
                        ("max".into(), Value::from(s.max)),
                        ("p50".into(), Value::from(s.p50())),
                        ("p90".into(), Value::from(s.p90())),
                        ("p99".into(), Value::from(s.p99())),
                        ("buckets".into(), Value::Array(buckets)),
                    ];
                    if let Some(recent) = window.and_then(|w| w.recent_from(name, &s)) {
                        pairs.push((
                            "recent".into(),
                            Value::Object(vec![
                                ("count".into(), Value::from(recent.count)),
                                ("sum".into(), Value::from(recent.sum)),
                                ("max".into(), Value::from(recent.max)),
                                ("p50".into(), Value::from(recent.p50())),
                                ("p90".into(), Value::from(recent.p90())),
                                ("p99".into(), Value::from(recent.p99())),
                            ]),
                        ));
                    }
                    histograms.push((name.clone(), Value::Object(pairs)));
                }
            }
        }
        let mut doc = vec![
            ("schema".into(), Value::from(SCHEMA)),
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
        ];
        if let Some(w) = window {
            doc.push(("recent_window_s".into(), Value::Float(w.span_secs())));
        }
        Value::Object(doc)
    }

    /// The JSON snapshot as text.
    pub fn to_json(&self) -> String {
        self.to_json_value_windowed(None).to_string()
    }

    /// Prometheus text exposition (format version 0.0.4): counters and
    /// gauges as single samples, histograms as cumulative `_bucket{le=…}`
    /// series plus `_sum` and `_count`. Dotted names mangle to
    /// `ss_`-prefixed underscore names (`io.block_reads` →
    /// `ss_io_block_reads`).
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_windowed(None)
    }

    /// Like [`to_prometheus`](Registry::to_prometheus), additionally
    /// exposing each windowed histogram's recent view as gauges
    /// (`{name}_recent_p50` / `_p90` / `_p99` / `_max` / `_count`) so a
    /// scraper sees sliding-interval percentiles without doing rate math
    /// over buckets.
    pub fn to_prometheus_windowed(&self, window: Option<&HistogramWindow>) -> String {
        let metrics = self.inner.metrics.read().unwrap();
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            let pname = prometheus_name(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!("# TYPE {pname} histogram\n"));
                    let mut cumulative = 0u64;
                    for i in 0..NUM_BUCKETS {
                        if s.buckets[i] == 0 {
                            continue;
                        }
                        cumulative += s.buckets[i];
                        out.push_str(&format!(
                            "{pname}_bucket{{le=\"{}\"}} {cumulative}\n",
                            bucket_upper(i)
                        ));
                    }
                    out.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {}\n", s.count));
                    out.push_str(&format!("{pname}_sum {}\n", s.sum));
                    out.push_str(&format!("{pname}_count {}\n", s.count));
                    if let Some(recent) = window.and_then(|w| w.recent_from(name, &s)) {
                        for (suffix, v) in [
                            ("recent_p50", recent.p50()),
                            ("recent_p90", recent.p90()),
                            ("recent_p99", recent.p99()),
                            ("recent_max", recent.max),
                            ("recent_count", recent.count),
                        ] {
                            out.push_str(&format!(
                                "# TYPE {pname}_{suffix} gauge\n{pname}_{suffix} {v}\n"
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Mangles a dotted metric name into a Prometheus metric name.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("ss_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn handles_share_state_across_clones() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.inc();
        r.clone().counter("a.count").add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("a.gauge");
        g.set(17);
        g.add(3);
        assert_eq!(r.gauge("a.gauge").get(), 20);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn timed_and_span_record() {
        let r = Registry::new();
        let answer = r.timed("t.ns", || 7);
        assert_eq!(answer, 7);
        {
            let _span = r.span("t.ns");
        }
        assert_eq!(r.histogram("t.ns").count(), 2);
    }

    #[test]
    fn json_snapshot_has_stable_shape() {
        let r = Registry::new();
        r.counter("io.block_reads").add(7);
        r.gauge("maintain.tiles_dirty").set(4);
        r.record_ns("q.ns", 100);
        r.record_ns("q.ns", 3000);
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("io.block_reads")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("maintain.tiles_dirty")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        let h = v.get("histograms").unwrap().get("q.ns").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(3100));
        assert_eq!(h.get("max").unwrap().as_u64(), Some(3000));
        assert_eq!(h.get("buckets").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn json_histogram_counts_roundtrip_exactly() {
        let r = Registry::new();
        let h = r.histogram("h.ns");
        for v in [0u64, 1, 1, 255, 255, 255, u64::MAX] {
            h.record(v);
        }
        let parsed = json::parse(&r.to_json()).unwrap();
        let hv = parsed.get("histograms").unwrap().get("h.ns").unwrap();
        let total: u64 = hv
            .get("buckets")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|pair| pair.as_array().unwrap()[1].as_u64().unwrap())
            .sum();
        assert_eq!(total, 7);
        assert_eq!(hv.get("count").unwrap().as_u64(), Some(7));
        assert_eq!(hv.get("max").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let r = Registry::new();
        r.counter("io.block_reads").add(3);
        r.gauge("pool.frames").set(9);
        r.record_ns("storage.block_read_ns", 100);
        r.record_ns("storage.block_read_ns", 200_000);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE ss_io_block_reads counter"));
        assert!(text.contains("ss_io_block_reads 3"));
        assert!(text.contains("# TYPE ss_pool_frames gauge"));
        assert!(text.contains("# TYPE ss_storage_block_read_ns histogram"));
        assert!(text.contains("ss_storage_block_read_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ss_storage_block_read_ns_count 2"));
        // Cumulative buckets are non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "{line}");
            last = n;
        }
    }

    #[test]
    fn prometheus_name_escaping_covers_non_alphanumerics() {
        assert_eq!(prometheus_name("io.block_reads"), "ss_io_block_reads");
        assert_eq!(prometheus_name("a-b c/d.e"), "ss_a_b_c_d_e");
        assert_eq!(prometheus_name("ünïcode.ns"), "ss__n_code_ns");
        assert_eq!(prometheus_name("9leading.digit"), "ss_9leading_digit");
        assert_eq!(prometheus_name(""), "ss_");
        // Escaped names stay within the Prometheus grammar
        // [a-zA-Z_:][a-zA-Z0-9_:]*.
        for raw in ["x{y=\"z\"}", "new\nline", "emoji🙂name"] {
            let p = prometheus_name(raw);
            assert!(p.chars().next().unwrap().is_ascii_alphabetic() || p.starts_with("ss_"));
            assert!(
                p.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{p}"
            );
        }
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let r = Registry::new();
        assert_eq!(r.to_prometheus(), "");
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        for section in ["counters", "gauges", "histograms"] {
            assert!(
                v.get(section).unwrap().as_object().unwrap().is_empty(),
                "{section} not empty"
            );
        }
    }

    #[test]
    fn windowed_exports_attach_recent_views() {
        use crate::window::HistogramWindow;
        use std::time::Duration;
        let r = Registry::new();
        let h = r.histogram("srv.request_ns");
        for _ in 0..50 {
            h.record(1 << 20);
        }
        let w = HistogramWindow::new(r.clone(), Duration::from_millis(10), 3);

        // Before the first tick: no recent view, schema unchanged.
        let v = json::parse(&r.to_json_value_windowed(Some(&w)).to_string()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        let hv = v.get("histograms").unwrap().get("srv.request_ns").unwrap();
        assert!(hv.get("recent").is_none());

        w.tick();
        for _ in 0..5 {
            h.record(64);
        }
        let v = json::parse(&r.to_json_value_windowed(Some(&w)).to_string()).unwrap();
        let hv = v.get("histograms").unwrap().get("srv.request_ns").unwrap();
        let recent = hv.get("recent").unwrap();
        assert_eq!(recent.get("count").unwrap().as_u64(), Some(5));
        assert!(recent.get("p99").unwrap().as_u64().unwrap() <= 127);
        // Lifetime p99 still reflects the old heavy samples.
        assert!(hv.get("p99").unwrap().as_u64().unwrap() >= 1 << 19);
        assert!(v.get("recent_window_s").unwrap().as_f64().is_some());

        let text = r.to_prometheus_windowed(Some(&w));
        assert!(text.contains("ss_srv_request_ns_recent_p99"), "{text}");
        assert!(text.contains("ss_srv_request_ns_recent_count 5"), "{text}");
    }

    mod roundtrip_property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            // Record a pseudo-random sample set; to_json must round-trip
            // the exact per-bucket counts through parse().
            #[test]
            fn json_roundtrips_bucket_counts(
                values in prop::collection::vec(any::<u64>(), 100),
            ) {
                let r = Registry::new();
                let h = r.histogram("p.ns");
                for &v in &values {
                    h.record(v);
                }
                let snap = h.snapshot();
                let parsed = json::parse(&r.to_json()).unwrap();
                let hv = parsed.get("histograms").unwrap().get("p.ns").unwrap();
                prop_assert_eq!(
                    hv.get("count").unwrap().as_u64(),
                    Some(values.len() as u64)
                );
                let mut buckets = [0u64; NUM_BUCKETS];
                for pair in hv.get("buckets").unwrap().as_array().unwrap() {
                    let pair = pair.as_array().unwrap();
                    let upper = pair[0].as_u64().unwrap();
                    let count = pair[1].as_u64().unwrap();
                    let idx = (0..NUM_BUCKETS)
                        .find(|&i| bucket_upper(i) == upper)
                        .expect("bucket bound");
                    buckets[idx] = count;
                }
                prop_assert_eq!(buckets, snap.buckets);
            }
        }
    }
}
