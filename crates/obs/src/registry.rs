//! A lock-cheap metrics registry.
//!
//! Storage is the metric *family*: a name, ordered label dimensions (e.g.
//! `rank` × `op`) and one slab of atomic cells, a fixed number per label
//! combination — one for a counter, two for a gauge (level and high-water
//! mark), 69 for a histogram (count, sum, min, max and [`HIST_BUCKETS`]
//! buckets). Rows are laid out row-major over the dimensions in the order
//! they were registered, so the row of `rank` × `op` is `rank × ops + op`.
//! Registering a family takes the registry mutex once and allocates its
//! slab; no key is formatted. The hot path — incrementing a counter from
//! inside an MPI call, recording a virtual-time duration — is one relaxed
//! atomic per cell.
//!
//! A lone instrument ([`MetricsRegistry::counter`], `gauge`, `histogram`)
//! is a family without dimensions: its handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) shares the family's one-row slab. Metric identity is
//! `name{k=v,…}` with labels sorted by key, so equal registrations from
//! different call sites share one instrument. A family owns its name: a
//! lone instrument of that name, labelled or not, panics, and so does a
//! family whose name a registered key already uses.
//!
//! Keys are rendered only by [`MetricsRegistry::snapshot`], which walks
//! the families under the lock and produces a plain, serializable,
//! deterministically ordered value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

/// Number of power-of-two histogram buckets (covers the full `u64` range).
pub const HIST_BUCKETS: usize = 65;

/// Cells of one histogram: count, sum, min, max, then the buckets.
const HIST_CELLS: usize = 4 + HIST_BUCKETS;

/// Offsets of a histogram's moments within its row.
const COUNT: usize = 0;
const SUM: usize = 1;
const MIN: usize = 2;
const MAX: usize = 3;
const BUCKET0: usize = 4;

/// One family's cells.
type Slab = Arc<[AtomicU64]>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    /// Cells per instrument.
    fn cells(self) -> usize {
        match self {
            Kind::Counter => 1,
            Kind::Gauge => 2,
            Kind::Histogram => HIST_CELLS,
        }
    }

    /// A zeroed slab of `rows` instruments; a histogram's min starts at
    /// `u64::MAX`.
    fn slab(self, rows: usize) -> Slab {
        let cells = self.cells();
        (0..rows * cells)
            .map(|i| {
                let min = self == Kind::Histogram && i % cells == MIN;
                AtomicU64::new(if min { u64::MAX } else { 0 })
            })
            .collect()
    }
}

/// A monotonically increasing counter (bytes, calls, …).
#[derive(Clone)]
pub struct Counter {
    slab: Slab,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.slab[0].fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.slab[0].load(Ordering::Relaxed)
    }
}

/// An instantaneous level with a high-water mark (e.g. posted-collective
/// occupancy, in-flight operations).
#[derive(Clone)]
pub struct Gauge {
    slab: Slab,
}

impl Gauge {
    fn value(&self) -> &AtomicU64 {
        &self.slab[0]
    }

    fn high_water_cell(&self) -> &AtomicU64 {
        &self.slab[1]
    }

    /// Raise the level by one and update the high-water mark.
    pub fn inc(&self) {
        let v = self.value().fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water_cell().fetch_max(v, Ordering::Relaxed);
    }

    /// Lower the level by one.
    pub fn dec(&self) {
        self.value().fetch_sub(1, Ordering::Relaxed);
    }

    /// Set the level to an absolute value and update the high-water mark.
    pub fn set(&self, v: u64) {
        self.value().store(v, Ordering::Relaxed);
        self.high_water_cell().fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value().load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub fn high_water(&self) -> u64 {
        self.high_water_cell().load(Ordering::Relaxed)
    }
}

/// A histogram of `u64` samples (virtual-time durations in nanoseconds)
/// with power-of-two buckets plus count/sum/min/max.
#[derive(Clone)]
pub struct Histogram {
    slab: Slab,
}

/// Bucket index for a sample: 0 holds zero, bucket `i` holds samples whose
/// highest set bit is `i - 1` (i.e. `[2^(i-1), 2^i)`).
fn bucket_of(sample: u64) -> usize {
    (u64::BITS - sample.leading_zeros()) as usize
}

/// Record one sample into a histogram's row of cells.
fn record(row: &[AtomicU64], sample: u64) {
    row[COUNT].fetch_add(1, Ordering::Relaxed);
    row[SUM].fetch_add(sample, Ordering::Relaxed);
    row[MIN].fetch_min(sample, Ordering::Relaxed);
    row[MAX].fetch_max(sample, Ordering::Relaxed);
    row[BUCKET0 + bucket_of(sample)].fetch_add(1, Ordering::Relaxed);
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, sample: u64) {
        record(&self.slab, sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.slab[COUNT].load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.slab[SUM].load(Ordering::Relaxed)
    }
}

/// A family of counters, one per label combination, addressed by row.
pub struct CounterFamily {
    slab: Slab,
}

impl CounterFamily {
    /// Add `n` to the counter in `row`.
    pub fn add(&self, row: usize, n: u64) {
        self.slab[row].fetch_add(n, Ordering::Relaxed);
    }
}

/// A family of histograms, one per label combination, addressed by row.
pub struct HistogramFamily {
    slab: Slab,
}

impl HistogramFamily {
    /// Record one sample into the histogram in `row`.
    pub fn record(&self, row: usize, sample: u64) {
        record(&self.slab[row * HIST_CELLS..(row + 1) * HIST_CELLS], sample);
    }

    /// Number of histograms (label combinations) in the family.
    pub fn rows(&self) -> usize {
        self.slab.len() / HIST_CELLS
    }
}

/// One label dimension of a family: its key and every value, in row
/// order.
struct Dim {
    key: String,
    values: Arc<[String]>,
}

/// A registered family: its instrument kind, its label dimensions (none
/// for a lone instrument) and its slab.
struct Family {
    kind: Kind,
    dims: Vec<Dim>,
    slab: Slab,
}

impl Family {
    /// Call `f` with every key the family renders and its row. `name` is
    /// the family's name, or a lone instrument's whole key. Keys come in
    /// the snapshot map's order while label values hold no `,` or `}`, so
    /// the bulk build mostly finds them sorted already.
    fn for_each_key(&self, name: &str, mut f: impl FnMut(String, usize)) {
        // Each dimension's row stride, then the dimensions in label-key
        // order, which is the order keys render them in.
        let mut stride = 1;
        let mut dims: Vec<(&Dim, usize)> = Vec::with_capacity(self.dims.len());
        for dim in self.dims.iter().rev() {
            dims.push((dim, stride));
            stride *= dim.values.len();
        }
        dims.sort_by(|a, b| a.0.key.cmp(&b.0.key));
        // Per dimension: `key=value` and the separator after it, sorted,
        // with the value's row offset.
        let levels: Vec<Vec<(String, usize)>> = dims
            .iter()
            .enumerate()
            .map(|(i, (dim, stride))| {
                let end = if i + 1 == dims.len() { '}' } else { ',' };
                let mut frags: Vec<(String, usize)> = dim
                    .values
                    .iter()
                    .enumerate()
                    .map(|(v, value)| (format!("{}={value}{end}", dim.key), v * stride))
                    .collect();
                frags.sort();
                frags
            })
            .collect();
        let mut key = if levels.is_empty() {
            name.to_string()
        } else {
            format!("{name}{{")
        };
        walk(&levels, &mut key, 0, &mut f);
    }
}

/// Extend `key` by one fragment per level, depth first, and call `f` with
/// each whole key and its row.
fn walk(
    levels: &[Vec<(String, usize)>],
    key: &mut String,
    row: usize,
    f: &mut impl FnMut(String, usize),
) {
    let Some((level, rest)) = levels.split_first() else {
        return f(key.clone(), row);
    };
    for (frag, offset) in level {
        let len = key.len();
        key.push_str(frag);
        walk(rest, key, row + offset, f);
        key.truncate(len);
    }
}

/// The registry: families by name, lone instruments by key.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Canonical metric identity: `name{k=v,…}` with labels sorted by key, or
/// bare `name` when there are none.
pub fn metric_key(name: &str, labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, String)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let body: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Lock the family table, recovering from poisoning: metrics are
    /// monotone counters, so state left by a panicking writer is still
    /// valid to read and extend.
    fn table(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Family>> {
        self.families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Get or create the lone instrument `name{labels}`; returns its slab.
    fn lone(&self, kind: Kind, name: &str, labels: &[(&str, String)]) -> Slab {
        let key = metric_key(name, labels);
        let mut m = self.table();
        if m.get(name).is_some_and(|f| !f.dims.is_empty()) {
            panic!("metric {key} collides with the family {name}");
        }
        let f = m.entry(key.clone()).or_insert_with(|| Family {
            kind,
            dims: Vec::new(),
            slab: kind.slab(1),
        });
        if f.kind != kind {
            panic!("metric {key} already registered with a different type");
        }
        f.slab.clone()
    }

    /// Create the family `name` over `dims` (label key, every value);
    /// returns its slab. Values must be distinct within a dimension.
    fn family(&self, kind: Kind, name: &str, dims: &[(&str, Arc<[String]>)]) -> Slab {
        let mut m = self.table();
        let prefix = format!("{name}{{");
        let taken = m.contains_key(name)
            || m.range(prefix.clone()..)
                .next()
                .is_some_and(|(k, _)| k.starts_with(&prefix));
        if taken {
            panic!("metric family {name} collides with a registered metric");
        }
        let rows = dims.iter().map(|(_, values)| values.len()).product();
        let slab = kind.slab(rows);
        let dims = dims
            .iter()
            .map(|(key, values)| Dim {
                key: key.to_string(),
                values: values.clone(),
            })
            .collect();
        m.insert(
            name.to_string(),
            Family {
                kind,
                dims,
                slab: slab.clone(),
            },
        );
        slab
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> Counter {
        Counter {
            slab: self.lone(Kind::Counter, name, labels),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> Gauge {
        Gauge {
            slab: self.lone(Kind::Gauge, name, labels),
        }
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, String)]) -> Histogram {
        Histogram {
            slab: self.lone(Kind::Histogram, name, labels),
        }
    }

    /// Create the counter family `name`, one counter per combination of
    /// `dims` values (see the module docs for the row layout).
    pub fn counter_family(&self, name: &str, dims: &[(&str, Arc<[String]>)]) -> CounterFamily {
        CounterFamily {
            slab: self.family(Kind::Counter, name, dims),
        }
    }

    /// Create the histogram family `name`, one histogram per combination of
    /// `dims` values (see the module docs for the row layout).
    pub fn histogram_family(&self, name: &str, dims: &[(&str, Arc<[String]>)]) -> HistogramFamily {
        HistogramFamily {
            slab: self.family(Kind::Histogram, name, dims),
        }
    }

    /// Snapshot every instrument into a plain, ordered, serializable value.
    /// Each kind's rows are gathered in a `Vec` and its map is built in one
    /// bulk `collect`, not one insert per row.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.table();
        let (mut counters, mut gauges, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
        for (name, f) in m.iter() {
            let cells = f.kind.cells();
            f.for_each_key(name, |key, row| {
                let row = &f.slab[row * cells..(row + 1) * cells];
                let load = |i: usize| row[i].load(Ordering::Relaxed);
                match f.kind {
                    Kind::Counter => counters.push((key, load(0))),
                    Kind::Gauge => {
                        let gauge = GaugeSnapshot {
                            value: load(0),
                            high_water: load(1),
                        };
                        gauges.push((key, gauge));
                    }
                    Kind::Histogram => {
                        let count = load(COUNT);
                        let histogram = HistogramSnapshot {
                            count,
                            sum: load(SUM),
                            min: if count == 0 { 0 } else { load(MIN) },
                            max: load(MAX),
                            buckets: (BUCKET0..HIST_CELLS).map(load).collect(),
                        };
                        histograms.push((key, histogram));
                    }
                }
            });
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }
}

/// Point-in-time value of a gauge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GaugeSnapshot {
    /// Level at snapshot time.
    pub value: u64,
    /// Highest level ever observed.
    pub high_water: u64,
}

/// Point-in-time contents of a histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Power-of-two bucket counts; bucket 0 holds zero-valued samples,
    /// bucket `i` holds samples in `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
}

/// Everything in the registry at one instant, deterministically ordered by
/// metric key.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values by metric key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric key.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram contents by metric key.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_identity() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("bytes", &[("rank", "0".into()), ("op", "ibcast".into())]);
        // Same name + same labels (any order) → same instrument.
        let b = reg.counter("bytes", &[("op", "ibcast".into()), ("rank", "0".into())]);
        a.add(10);
        b.add(5);
        assert_eq!(a.get(), 15);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["bytes{op=ibcast,rank=0}"], 15);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("occupancy", &[]);
        g.inc();
        g.inc();
        g.dec();
        g.inc();
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 2);
        g.set(7);
        g.set(1);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["occupancy"].value, 1);
        assert_eq!(snap.gauges["occupancy"].high_water, 7);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait_ns", &[("rank", "1".into())]);
        h.record(0);
        h.record(1);
        h.record(1024);
        h.record(1500);
        let snap = reg.snapshot();
        let hs = &snap.histograms["wait_ns{rank=1}"];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 2525);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1500);
        assert_eq!(hs.buckets[0], 1); // the zero
        assert_eq!(hs.buckets[1], 1); // 1 ∈ [1,2)
        assert_eq!(hs.buckets[11], 2); // 1024, 1500 ∈ [1024,2048)
        assert_eq!(hs.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let reg = MetricsRegistry::new();
        reg.histogram("empty", &[]);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["empty"].min, 0);
        assert_eq!(snap.histograms["empty"].count, 0);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    fn values(n: usize) -> Arc<[String]> {
        (0..n).map(|v| v.to_string()).collect()
    }

    #[test]
    fn families_render_what_lone_instruments_render() {
        // p = 12 ranks × 3 ops: two-digit rank labels sort as strings.
        let (p, ops) = (12, ["send", "ibcast", "iallreduce"]);
        let op_values: Arc<[String]> = ops.iter().map(|o| o.to_string()).collect();
        let dense = MetricsRegistry::new();
        let calls = dense.counter_family("calls", &[("rank", values(p)), ("op", op_values)]);
        let waits = dense.histogram_family("wait_ns", &[("rank", values(p))]);
        let lone = MetricsRegistry::new();
        for r in 0..p {
            for (o, op) in ops.iter().enumerate() {
                let labels = [("rank", r.to_string()), ("op", op.to_string())];
                let c = lone.counter("calls", &labels);
                for _ in 0..r * o {
                    calls.add(r * ops.len() + o, 1);
                    c.inc();
                }
            }
            let h = lone.histogram("wait_ns", &[("rank", r.to_string())]);
            for sample in [r as u64, 1 << r] {
                waits.record(r, sample);
                h.record(sample);
            }
        }
        let (dense, lone) = (dense.snapshot(), lone.snapshot());
        assert_eq!(dense, lone);
        assert_eq!(dense.counters.len(), p * ops.len());
        let keys: Vec<&str> = dense.histograms.keys().map(String::as_str).collect();
        assert_eq!(
            keys[..3],
            ["wait_ns{rank=0}", "wait_ns{rank=10}", "wait_ns{rank=11}"]
        );
        assert_eq!(dense.counters["calls{op=send,rank=0}"], 0);
        assert_eq!(dense.counters["calls{op=iallreduce,rank=11}"], 22);
    }

    #[test]
    fn a_family_row_records_min_and_max() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_family("stall_ns", &[("rank", values(3))]);
        assert_eq!(h.rows(), 3);
        for sample in [700, 90, 5_000] {
            h.record(2, sample);
        }
        h.record(0, 0);
        let snap = reg.snapshot();
        let hs = &snap.histograms["stall_ns{rank=2}"];
        assert_eq!((hs.count, hs.sum, hs.min, hs.max), (3, 5_790, 90, 5_000));
        assert_eq!(hs.buckets[7], 1); // 90 ∈ [64,128)
        assert_eq!(hs.buckets[10], 1); // 700 ∈ [512,1024)
        assert_eq!(hs.buckets[13], 1); // 5000 ∈ [4096,8192)
        let zero = &snap.histograms["stall_ns{rank=0}"];
        assert_eq!((zero.count, zero.min, zero.max), (1, 0, 0));
        let untouched = &snap.histograms["stall_ns{rank=1}"];
        assert_eq!((untouched.count, untouched.min, untouched.max), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "metric calls{op=send,rank=0} collides with the family calls")]
    fn a_lone_key_a_family_renders_panics() {
        let reg = MetricsRegistry::new();
        let ops: Arc<[String]> = ["send".to_string()].into();
        reg.counter_family("calls", &[("rank", values(2)), ("op", ops)]);
        reg.counter("calls", &[("op", "send".into()), ("rank", "0".into())]);
    }

    #[test]
    #[should_panic(expected = "metric family calls collides with a registered metric")]
    fn a_family_over_a_registered_key_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("calls", &[("rank", "5".into())]);
        reg.counter_family("calls", &[("rank", values(2))]);
    }
}
