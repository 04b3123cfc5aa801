//! The metrics registry: counters, gauges, log-bucketed histograms, named
//! registration, and Prometheus text-format rendering.
//!
//! Handles are `Arc`s over atomics: the hot path (a worker recording a
//! query) is a handful of relaxed atomic adds and never takes a lock. The
//! registry's mutex guards only the name→handle table, touched at
//! registration and render time.

use cpq_check::sync::atomic::{AtomicU64, Ordering};
use cpq_check::sync::{self, Arc, Mutex};

/// A monotonically increasing counter.
///
/// `store` exists for *bridged* counters — mirrors of counters owned by
/// another subsystem (e.g. `BufferPool`'s hit/miss counts), refreshed from a
/// consistent snapshot of the source before each scrape. Bridged values are
/// monotone because the sources are.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — independent statistics counter; scrapes need
        // an eventually-accurate total, not a synchronizes-with edge.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (bridged counters only; see the type docs).
    #[inline]
    pub fn store(&self, v: u64) {
        // ordering: Relaxed — the bridged source is read under its own
        // lock; this store only transports the value to the scrape path.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — see `add`; counters carry no payload to
        // acquire.
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous `f64` value that can move both ways.
///
/// Stored as the value's bit pattern in an `AtomicU64`, so reads and writes
/// are single atomic operations.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        // ordering: Relaxed — single-word instantaneous value; a reader
        // sees either the old or new bits, which is all a gauge promises.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        // ordering: Relaxed — see `set`.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of finite histogram buckets; bucket `i` covers values `v` with
/// `v <= 2^i`. Values above `2^(BUCKETS-1)` land in the implicit `+Inf`
/// overflow bucket. With microsecond samples the finite range tops out at
/// `2^31 us ≈ 36 min` — far beyond any query deadline.
const BUCKETS: usize = 32;

/// A log-bucketed histogram of `u64` samples (power-of-two bucket bounds).
///
/// Recording is two relaxed atomic adds (bucket + sum). Buckets are
/// monotone counters, so a snapshot that reads each bucket once is
/// internally consistent: the rendered `_count` is *defined* as the sum of
/// the bucket reads, so `_bucket{le="+Inf"} == _count` holds in every
/// snapshot, torn views impossible. `_sum` is read in the same pass and may
/// trail the buckets by in-flight samples; Prometheus semantics allow this
/// (both are monotone and converge).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros()) as usize // ceil(log2 v)
        };
        // ordering: Relaxed — independent monotone counters; snapshot
        // consistency is by construction (type docs), not by ordering.
        match self.buckets.get(idx) {
            Some(b) => b.fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Consistent point-in-time view (see the type docs for the guarantee).
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed — each cell is read once; `count` is defined
        // as the sum of these reads, so the view cannot tear (type docs).
        let sum = self.sum.load(Ordering::Relaxed);
        let overflow = self.overflow.load(Ordering::Relaxed);
        let read = |b: &AtomicU64| b.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self.buckets.iter().map(read).collect();
        let count = buckets.iter().sum::<u64>() + overflow;
        HistogramSnapshot {
            buckets,
            overflow,
            count,
            sum,
        }
    }
}

/// Point-in-time view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; bucket `i` has upper bound `2^i`.
    pub buckets: Vec<u64>,
    /// Samples above the largest finite bound.
    pub overflow: u64,
    /// Total samples — by construction the sum of `buckets` + `overflow`.
    pub count: u64,
    /// Sum of all recorded sample values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper bound of finite bucket `i`.
    pub fn le(i: usize) -> u64 {
        1u64 << i
    }
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A named collection of metrics.
///
/// Registration is get-or-create on `(name, labels)`: registering the same
/// series twice returns the same handle, so independent subsystems can share
/// series without coordination. Registering an existing name with a
/// different kind panics — that is a programming error, not a runtime
/// condition.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T, F: Fn() -> Handle, G: Fn(&Handle) -> Option<Arc<T>>>(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: F,
        cast: G,
    ) -> Arc<T> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        let mut families = sync::lock(&self.families);
        #[expect(clippy::expect_used, reason = "the push above makes it non-empty")]
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name:?} re-registered as {kind:?}, was {:?}",
                    f.kind
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        let wanted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(s) = family.series.iter().find(|s| s.labels == wanted) {
            #[expect(clippy::expect_used, reason = "the kind check above ensures the cast")]
            return cast(&s.handle).expect("kind checked above");
        }
        let handle = make();
        #[expect(clippy::expect_used, reason = "`make()` builds the kind asked for")]
        let out = cast(&handle).expect("make() produced the requested kind");
        family.series.push(Series {
            labels: wanted,
            handle,
        });
        out
    }

    /// Gets or creates a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            MetricKind::Counter,
            labels,
            || Handle::Counter(Arc::new(Counter::new())),
            |h| match h {
                Handle::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Gets or creates a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            MetricKind::Gauge,
            labels,
            || Handle::Gauge(Arc::new(Gauge::new())),
            |h| match h {
                Handle::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Gets or creates a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register(
            name,
            help,
            MetricKind::Histogram,
            labels,
            || Handle::Histogram(Arc::new(Histogram::new())),
            |h| match h {
                Handle::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4), ready to serve from a `/metrics` endpoint.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in sync::lock(&self.families).iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.exposition_name());
            for s in &f.series {
                let labels = label_block(&s.labels, None);
                match &s.handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{}{labels} {}", f.name, c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{}{labels} {}", f.name, fmt_f64(g.get()));
                    }
                    Handle::Histogram(h) => {
                        let h = h.snapshot();
                        let mut cum = 0u64;
                        for (i, b) in h.buckets.iter().enumerate() {
                            cum += b;
                            let le = HistogramSnapshot::le(i).to_string();
                            let le = label_block(&s.labels, Some(("le", &le)));
                            let _ = writeln!(out, "{}_bucket{le} {cum}", f.name);
                        }
                        let le = label_block(&s.labels, Some(("le", "+Inf")));
                        let _ = writeln!(out, "{}_bucket{le} {}", f.name, h.count);
                        let _ = writeln!(out, "{}_sum{labels} {}", f.name, h.sum);
                        let _ = writeln!(out, "{}_count{labels} {}", f.name, h.count);
                    }
                }
            }
        }
        out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v.is_nan() {
        "NaN".into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.store(17);
        assert_eq!(c.get(), 17);

        let g = Gauge::new();
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new();
        // Bucket i covers (2^(i-1), 2^i]; 0 and 1 share bucket 0.
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.buckets[0], 2); // 0, 1
        assert_eq!(s.buckets[1], 1); // 2
        assert_eq!(s.buckets[2], 2); // 3, 4
        assert_eq!(s.buckets[10], 1); // 1024
        assert_eq!(s.overflow, 1); // u64::MAX
        assert_eq!(
            s.count,
            s.buckets.iter().sum::<u64>() + s.overflow,
            "count is derived from the buckets, never torn"
        );
    }

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x_total", "help", &[("k", "v")]);
        let b = r.counter("x_total", "help", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same (name, labels) shares one cell");
        let c = r.counter("x_total", "help", &[("k", "w")]);
        assert_eq!(c.get(), 0, "different labels are a fresh series");
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("x_total", "h", &[]);
        r.gauge("x_total", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        Registry::new().counter("0bad", "h", &[]);
    }

    #[test]
    fn render_is_well_formed() {
        let r = Registry::new();
        r.counter("q_total", "queries", &[("algo", "HEAP")]).add(3);
        r.gauge("depth", "queue depth", &[]).set(2.0);
        let h = r.histogram("lat_us", "latency", &[]);
        h.record(5);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE q_total counter"));
        assert!(text.contains("q_total{algo=\"HEAP\"} 3"));
        assert!(text.contains("depth 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum 105"));
        assert!(text.contains("lat_us_count 2"));
        crate::lint_exposition(&text).expect("own output passes the linter");
    }

    #[test]
    fn label_escaping() {
        let r = Registry::new();
        r.counter("e_total", "h", &[("path", "a\"b\\c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("e_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
        crate::lint_exposition(&text).expect("escaped labels still lint");
    }
}
