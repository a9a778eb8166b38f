//! Dependency-free observability: tracing spans, a metrics registry, and
//! training telemetry, collectable as a [`RunReport`].
//!
//! # Design
//!
//! * **Zero-cost when disabled.** Every entry point first checks
//!   [`enabled`] — a single relaxed atomic load — and returns immediately
//!   when tracing is off. Instrumentation never branches on obs state for
//!   anything numeric, so the disabled path is bit-for-bit identical to an
//!   un-instrumented build (guarded by `crates/core/tests/obs_report.rs`).
//! * **Spans** are RAII guards ([`span`] / the [`span!`](crate::span)
//!   macro): entering pushes a name onto a thread-local stack, dropping pops
//!   it and credits wall-clock to the `/`-joined path, so nested spans show
//!   up as `pipeline.fit/pipeline.train/train.fit`. Spans are only created
//!   on the coordinating thread — worker threads inside
//!   [`parallel`](crate::parallel) primitives are accounted through counters
//!   instead, which keeps span paths deterministic.
//! * **Metrics.** Cold-path counters, gauges, and histograms live in a
//!   mutex-guarded registry keyed by `&'static str`. Hot paths (tape node
//!   allocation, parallel chunk dispatch, CSR buffer growth) use dedicated
//!   lock-free [`HotCounter`]s that are folded into the same counter
//!   namespace at [`collect`] time.
//! * **Determinism.** All counter values are defined as *logical* work
//!   (chunks that would be dispatched, nodes pushed, bytes allocated), so a
//!   report collected under `GNN4TDL_THREADS=1` is byte-identical to one
//!   collected at any other thread count once duration fields — always and
//!   only fields named `*_ms` — are masked with [`mask_durations`].
//!
//! # Enabling
//!
//! Tracing starts disabled. It turns on when `GNN4TDL_TRACE` is set to
//! anything other than `0` / `false` / `off` / empty, or programmatically
//! via [`enable`]. [`disable`] wins over the environment once called.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

// ---------------------------------------------------------------------------
// Enable switch
// ---------------------------------------------------------------------------

/// 0 = not yet initialised from the environment, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Is tracing currently on? One relaxed atomic load on the fast path; the
/// first call consults `GNN4TDL_TRACE` unless [`enable`]/[`disable`] ran
/// earlier.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("GNN4TDL_TRACE").is_ok_and(|v| {
        let v = v.trim();
        !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off"))
    });
    // Keep an explicit enable()/disable() that raced us.
    let _ = STATE.compare_exchange(0, if on { 2 } else { 1 }, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == 2
}

/// Turns tracing on (overrides `GNN4TDL_TRACE`).
pub fn enable() {
    STATE.store(2, Ordering::Relaxed);
}

/// Turns tracing off (overrides `GNN4TDL_TRACE`).
pub fn disable() {
    STATE.store(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SpanStat {
    calls: u64,
    total_ns: u128,
}

/// Aggregate of every value recorded into one histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramStat {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

/// One per-epoch training telemetry record emitted by the trainer.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// Span path active when the trainer ran, e.g.
    /// `pipeline.fit/pipeline.train/train.fit`.
    pub phase: String,
    pub epoch: usize,
    pub train_loss: f32,
    /// Weighted auxiliary-loss share of `train_loss` (0 when no aux tasks).
    pub aux_loss: f32,
    pub val_loss: f32,
    /// Did this epoch improve the best validation loss?
    pub improved: bool,
    /// Early-stopping state: consecutive non-improving epochs so far.
    pub bad_epochs: usize,
}

/// One per-phase record (featurize / construct / train, or a whole
/// trainer invocation).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRecord {
    pub label: String,
    /// Wall clock. The only non-deterministic field; masked by
    /// [`mask_durations`] in snapshot tests.
    pub duration_ms: f64,
    /// Deterministic phase facts, e.g. `("edges", 1234.0)`.
    pub items: Vec<(String, f64)>,
}

#[derive(Debug)]
struct Registry {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramStat>,
    phases: Vec<PhaseRecord>,
    epochs: Vec<EpochRecord>,
}

impl Registry {
    const fn new() -> Self {
        Self {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            phases: Vec::new(),
            epochs: Vec::new(),
        }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Hot-path counters (lock-free)
// ---------------------------------------------------------------------------

/// A lock-free monotonic counter for hot paths; folded into the regular
/// counter namespace by [`collect`].
pub struct HotCounter {
    name: &'static str,
    value: AtomicU64,
}

impl HotCounter {
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Adds `delta` when tracing is enabled; a no-op otherwise.
    #[inline]
    pub fn add(&self, delta: u64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Tape nodes pushed (`tape.rs`).
pub static TAPE_NODES: HotCounter = HotCounter::new("tape.nodes");
/// Logical chunks a `par_chunks_mut`/`par_parts_mut` call covers — counted
/// before the sequential fallback so the value is thread-invariant.
pub static PAR_CHUNKS: HotCounter = HotCounter::new("par.chunks");
/// Items submitted to `par_map` (also thread-invariant).
pub static PAR_ITEMS: HotCounter = HotCounter::new("par.items");
/// `par_join` invocations.
pub static PAR_JOINS: HotCounter = HotCounter::new("par.joins");
/// Bytes held by freshly built CSR buffers (`sparse.rs`).
pub static CSR_BYTES: HotCounter = HotCounter::new("csr.bytes");
/// CSR matrices materialised.
pub static CSR_ALLOCS: HotCounter = HotCounter::new("csr.allocs");
/// Buffer-pool takes served from a free list (`pool.rs`).
pub static POOL_HITS: HotCounter = HotCounter::new("pool.hits");
/// Buffer-pool takes that fell back to a fresh allocation.
pub static POOL_MISSES: HotCounter = HotCounter::new("pool.misses");
/// Rows extracted by `CsrMatrix::induced_subgraph` (`sparse.rs`).
pub static CSR_SUBGRAPH_ROWS: HotCounter = HotCounter::new("csr.subgraph.rows");
/// Stored entries surviving `CsrMatrix::induced_subgraph`.
pub static CSR_SUBGRAPH_NNZ: HotCounter = HotCounter::new("csr.subgraph.nnz");
/// Rows copied by `Matrix::gather_rows` (`matrix.rs`).
pub static GATHER_ROWS: HotCounter = HotCounter::new("gather.rows");
/// GEMM B-panel pack-scratch takes (`kernel.rs`) — one per tiled product.
/// Logical work, not physical reuse (the per-thread hit/miss split depends
/// on which persistent worker ran the product; see `kernel::pack_stats` for
/// the physical tallies), so masked reports stay thread-count-invariant.
pub static PACK_TAKES: HotCounter = HotCounter::new("pack.takes");

const HOT_COUNTERS: [&HotCounter; 12] = [
    &TAPE_NODES,
    &PAR_CHUNKS,
    &PAR_ITEMS,
    &PAR_JOINS,
    &CSR_BYTES,
    &CSR_ALLOCS,
    &POOL_HITS,
    &POOL_MISSES,
    &CSR_SUBGRAPH_ROWS,
    &CSR_SUBGRAPH_NNZ,
    &GATHER_ROWS,
    &PACK_TAKES,
];

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`span`]; pops its frame and credits elapsed
/// wall-clock on drop.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    start: Option<Instant>,
}

/// Enters a span named `name`. Returns a no-op guard when tracing is off.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
    Span { start: Some(Instant::now()) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut reg = registry();
        let stat = reg.spans.entry(path).or_default();
        stat.calls += 1;
        stat.total_ns += elapsed.as_nanos();
    }
}

/// The `/`-joined span path currently open on this thread, if any.
pub fn current_path() -> Option<String> {
    SPAN_STACK.with(|stack| {
        let stack = stack.borrow();
        if stack.is_empty() {
            None
        } else {
            Some(stack.join("/"))
        }
    })
}

/// `span!("construct.knn")` — sugar for [`obs::span`](span) that reads like
/// an annotation at the top of an instrumented scope.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::obs::span($name)
    };
}

// ---------------------------------------------------------------------------
// Metrics API (cold paths)
// ---------------------------------------------------------------------------

/// Adds `delta` to the monotonic counter `name`.
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    *registry().counters.entry(name).or_insert(0) += delta;
}

/// Sets gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    registry().gauges.insert(name, value);
}

/// Records one observation into histogram `name`.
pub fn histogram_record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    let stat = reg.histograms.entry(name).or_insert(HistogramStat {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    });
    stat.count += 1;
    stat.sum += value;
    stat.min = stat.min.min(value);
    stat.max = stat.max.max(value);
}

/// Appends one per-phase telemetry record.
pub fn record_phase(label: &str, duration_ms: f64, items: &[(&str, f64)]) {
    if !enabled() {
        return;
    }
    let record = PhaseRecord {
        label: label.to_string(),
        duration_ms,
        items: items.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    };
    registry().phases.push(record);
}

/// Appends one per-epoch telemetry record.
pub fn record_epoch(record: EpochRecord) {
    if !enabled() {
        return;
    }
    registry().epochs.push(record);
}

/// Clears every span, metric, and telemetry record (hot counters included),
/// plus the calling thread's buffer-pool free lists and tallies — so two
/// back-to-back measured runs both start from a cold pool and produce the
/// same hit/miss ledger. The enable switch is left untouched.
pub fn reset() {
    crate::pool::clear_local();
    for hot in HOT_COUNTERS {
        hot.value.store(0, Ordering::Relaxed);
    }
    let mut reg = registry();
    reg.spans.clear();
    reg.counters.clear();
    reg.gauges.clear();
    reg.histograms.clear();
    reg.phases.clear();
    reg.epochs.clear();
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of everything recorded since the last
/// [`reset`], serialisable as deterministic JSON (schema `gnn4tdl.obs/v1`).
#[derive(Clone, Debug)]
pub struct RunReport {
    pub run_id: String,
    spans: Vec<(String, SpanStat)>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, HistogramStat)>,
    phases: Vec<PhaseRecord>,
    epochs: Vec<EpochRecord>,
}

/// Snapshots the registry (without clearing it) into a [`RunReport`].
pub fn collect(run_id: &str) -> RunReport {
    let reg = registry();
    let mut counters: Vec<(String, u64)> =
        reg.counters.iter().map(|(name, value)| (name.to_string(), *value)).collect();
    for hot in HOT_COUNTERS {
        let value = hot.get();
        if value > 0 {
            counters.push((hot.name.to_string(), value));
        }
    }
    counters.sort();
    RunReport {
        run_id: run_id.to_string(),
        spans: reg.spans.iter().map(|(path, stat)| (path.clone(), *stat)).collect(),
        counters,
        gauges: reg.gauges.iter().map(|(name, value)| (name.to_string(), *value)).collect(),
        histograms: reg.histograms.iter().map(|(name, stat)| (name.to_string(), *stat)).collect(),
        phases: reg.phases.clone(),
        epochs: reg.epochs.clone(),
    }
}

impl RunReport {
    /// Counter lookup, for assertions and the experiments sidecar summary.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Number of per-phase records collected.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Number of per-epoch records collected.
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Renders the report as JSON. Deterministic except for fields named
    /// `*_ms` (see [`mask_durations`]): maps are emitted in sorted order and
    /// records in insertion order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": ");
        json::write_str(&mut out, "gnn4tdl.obs/v1");
        out.push_str(",\n  \"run_id\": ");
        json::write_str(&mut out, &self.run_id);
        write_section(&mut out, "spans", &self.spans, |out, (path, stat)| {
            str_field(out, "path", path);
            let _ = write!(out, ", \"calls\": {}", stat.calls);
            f64_field(out, "total_ms", stat.total_ns as f64 / 1.0e6);
        });
        write_section(&mut out, "counters", &self.counters, |out, (name, value)| {
            str_field(out, "name", name);
            let _ = write!(out, ", \"value\": {value}");
        });
        write_section(&mut out, "gauges", &self.gauges, |out, (name, value)| {
            str_field(out, "name", name);
            f64_field(out, "value", *value);
        });
        write_section(&mut out, "histograms", &self.histograms, |out, (name, stat)| {
            str_field(out, "name", name);
            let _ = write!(out, ", \"count\": {}", stat.count);
            f64_field(out, "min", stat.min);
            f64_field(out, "max", stat.max);
            f64_field(out, "sum", stat.sum);
        });
        write_section(&mut out, "phases", &self.phases, |out, phase| {
            str_field(out, "label", &phase.label);
            f64_field(out, "duration_ms", phase.duration_ms);
            out.push_str(", \"items\": { ");
            for (i, (k, v)) in phase.items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::write_str(out, k);
                out.push_str(": ");
                json::write_f64(out, *v);
            }
            out.push_str(" }");
        });
        write_section(&mut out, "epochs", &self.epochs, |out, e| {
            str_field(out, "phase", &e.phase);
            let _ = write!(out, ", \"epoch\": {}", e.epoch);
            f64_field(out, "train_loss", f64::from(e.train_loss));
            f64_field(out, "aux_loss", f64::from(e.aux_loss));
            f64_field(out, "val_loss", f64::from(e.val_loss));
            let _ = write!(out, ", \"improved\": {}, \"bad_epochs\": {}", e.improved, e.bad_epochs);
        });
        out.push_str("\n}\n");
        out
    }

    /// Writes `<dir>/<run_id>.json` (directories created as needed) and
    /// returns the path. The file name is the run id with any character
    /// outside `[A-Za-z0-9._-]` replaced by `-`.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let stem: String = self
            .run_id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
            .collect();
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Report directory: `GNN4TDL_OBS_DIR` if set, else `target/obs-reports`.
pub fn default_report_dir() -> PathBuf {
    std::env::var("GNN4TDL_OBS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/obs-reports"))
}

/// Replaces the numeric value of every `*_ms` field in a report JSON with
/// `0.0`. Only duration fields carry the `_ms` suffix (and every duration
/// field does), so masked reports are fully deterministic.
pub fn mask_durations(json: &str) -> String {
    const NEEDLE: &str = "_ms\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find(NEEDLE) {
        let value_start = pos + NEEDLE.len();
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let value_len = tail.find([',', '}', ']', '\n']).unwrap_or(tail.len());
        out.push_str("0.0");
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

/// One report section after the previous field: `,\n  "name": [\n`, one
/// `    { .. }` line per item joined by `,\n`, then `\n  ]`.
fn write_section<'a, T: 'a>(
    out: &mut String,
    name: &str,
    items: impl IntoIterator<Item = &'a T>,
    mut fields: impl FnMut(&mut String, &'a T),
) {
    let _ = write!(out, ",\n  \"{name}\": [\n");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    { ");
        fields(out, item);
        out.push_str(" }");
    }
    out.push_str("\n  ]");
}

/// `"key": "value"`: the first field of every report line.
fn str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\": ");
    json::write_str(out, value);
}

/// `, "key": value` after an earlier field.
fn f64_field(out: &mut String, key: &str, value: f64) {
    let _ = write!(out, ", \"{key}\": ");
    json::write_f64(out, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that toggle the global enable switch.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked_enabled() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        enable();
        guard
    }

    #[test]
    fn disabled_span_is_noop() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disable();
        {
            let _s = span("obs.test.noop");
            assert_eq!(current_path(), None);
        }
        counter_add("obs.test.noop.counter", 7);
        let report = collect("noop");
        assert_eq!(report.counter("obs.test.noop.counter"), None);
        assert!(!report.spans.iter().any(|(p, _)| p.contains("obs.test.noop")));
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _guard = locked_enabled();
        {
            let _outer = span("obs.test.outer");
            assert_eq!(current_path().as_deref(), Some("obs.test.outer"));
            {
                let _inner = span("obs.test.inner");
                assert_eq!(current_path().as_deref(), Some("obs.test.outer/obs.test.inner"));
            }
        }
        let report = collect("nesting");
        let paths: Vec<&str> = report.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"obs.test.outer"));
        assert!(paths.contains(&"obs.test.outer/obs.test.inner"));
        let (_, outer) = report.spans.iter().find(|(p, _)| p == "obs.test.outer").unwrap();
        assert_eq!(outer.calls, 1);
        disable();
    }

    #[test]
    fn metrics_accumulate() {
        let _guard = locked_enabled();
        counter_add("obs.test.counter", 3);
        counter_add("obs.test.counter", 4);
        gauge_set("obs.test.gauge", 1.5);
        gauge_set("obs.test.gauge", 2.5);
        histogram_record("obs.test.hist", 1.0);
        histogram_record("obs.test.hist", 3.0);
        let report = collect("metrics");
        assert_eq!(report.counter("obs.test.counter"), Some(7));
        let (_, gauge) = report.gauges.iter().find(|(n, _)| n == "obs.test.gauge").unwrap();
        assert_eq!(*gauge, 2.5);
        let (_, hist) = report.histograms.iter().find(|(n, _)| n == "obs.test.hist").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.min, 1.0);
        assert_eq!(hist.max, 3.0);
        assert_eq!(hist.sum, 4.0);
        disable();
    }

    #[test]
    fn telemetry_records_appear_in_report_json() {
        let _guard = locked_enabled();
        record_phase("obs.test.phase", 12.5, &[("edges", 42.0)]);
        record_epoch(EpochRecord {
            phase: "obs.test.phase".to_string(),
            epoch: 0,
            train_loss: 1.25,
            aux_loss: 0.25,
            val_loss: 1.5,
            improved: true,
            bad_epochs: 0,
        });
        let json = collect("telemetry").to_json();
        assert!(json.contains("\"label\": \"obs.test.phase\""));
        assert!(json.contains("\"edges\": 42.0"));
        assert!(json.contains("\"train_loss\": 1.25"));
        assert!(json.contains("\"improved\": true"));
        disable();
    }

    #[test]
    fn mask_durations_zeroes_only_ms_fields() {
        let json = "{ \"total_ms\": 12.375, \"calls\": 3, \"duration_ms\": 0.0021,\n\"edges\": 42.0 }";
        let masked = mask_durations(json);
        assert_eq!(masked, "{ \"total_ms\": 0.0, \"calls\": 3, \"duration_ms\": 0.0,\n\"edges\": 42.0 }");
    }

    #[test]
    fn json_f64_formats_like_bench_reports() {
        let json_f64 = |v: f64| {
            let mut out = String::new();
            json::write_f64(&mut out, v);
            out
        };
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn report_json_parses_structurally() {
        let _guard = locked_enabled();
        counter_add("obs.test.json.counter", 1);
        let json = collect("json-shape").to_json();
        // Balanced braces/brackets and the five fixed sections.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["\"schema\"", "\"spans\"", "\"counters\"", "\"gauges\"", "\"phases\"", "\"epochs\""] {
            assert!(json.contains(key), "missing {key}");
        }
        disable();
    }

    #[test]
    fn save_sanitises_run_id() {
        let _guard = locked_enabled();
        let dir = std::env::temp_dir().join("gnn4tdl-obs-test");
        let report = collect("weird/run id");
        let path = report.save(&dir).expect("save report");
        assert!(path.ends_with("weird-run-id.json"));
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"run_id\": \"weird/run id\""));
        let _ = std::fs::remove_file(path);
        disable();
    }

    #[test]
    fn hot_counters_fold_into_counters() {
        let _guard = locked_enabled();
        // Concurrently-running tape/matrix tests may also bump the hot
        // counters while tracing is on, so only assert lower bounds.
        let before = TAPE_NODES.get();
        TAPE_NODES.add(5);
        TAPE_NODES.add(2);
        assert!(TAPE_NODES.get() >= before + 7);
        let report = collect("hot");
        assert!(report.counter("tape.nodes").unwrap_or(0) >= before + 7);
        disable();
    }

    #[test]
    fn reset_clears_cold_registry() {
        let _guard = locked_enabled();
        counter_add("obs.test.reset.counter", 9);
        gauge_set("obs.test.reset.gauge", 1.0);
        record_phase("obs.test.reset.phase", 1.0, &[]);
        reset();
        let report = collect("after-reset");
        assert_eq!(report.counter("obs.test.reset.counter"), None);
        assert!(!report.gauges.iter().any(|(n, _)| n == "obs.test.reset.gauge"));
        assert!(!report.phases.iter().any(|p| p.label == "obs.test.reset.phase"));
        disable();
    }
}
