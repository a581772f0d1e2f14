//! Layer spans recorded from the benchmark's own code, and the per-layer
//! table of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Wall time per layer span within one segment, in seconds. Spans are
/// flat: each wraps one call into one layer, and none nests inside
/// another, so their sum never double-counts.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder that times its spans.
    pub fn on() -> Self {
        Spans { on: true, secs: BTreeMap::new() }
    }

    /// A recorder that only runs the wrapped calls.
    pub fn off() -> Self {
        Spans::default()
    }

    /// Whether spans are being timed (the traced run).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its wall time to the span `name` when on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.secs.entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
        out
    }

    /// Adds every span, scaled by `factor` and converted to ms, into `rows`.
    pub fn add_scaled_ms(&self, factor: f64, rows: &mut BTreeMap<String, f64>) {
        for (name, s) in &self.secs {
            *rows.entry((*name).to_string()).or_insert(0.0) += s * factor * 1e3;
        }
    }
}

/// The per-layer table of one traced run: corrected milliseconds per
/// layer span for one set-up plus one mean traced repetition. The rows
/// and `unattributed_ms` sum to `total_ms` by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// Corrected ms per span.
    pub rows: BTreeMap<String, f64>,
    /// Corrected ms of the traced set-up plus the mean traced repetition.
    pub total_ms: f64,
    /// Traced time outside every span (benchmark glue, clones, checks).
    pub unattributed_ms: f64,
}

impl LayerTable {
    /// Builds the table; the remainder outside the rows is unattributed.
    pub fn new(rows: BTreeMap<String, f64>, total_ms: f64) -> Self {
        let attributed: f64 = rows.values().sum();
        LayerTable { rows, total_ms, unattributed_ms: total_ms - attributed }
    }

    /// The corrected ms of span `name` (0 when the workload has none).
    pub fn ms(&self, name: &str) -> f64 {
        self.rows.get(name).copied().unwrap_or(0.0)
    }

    /// Markdown rendering: one row per span, then the remainder and total.
    pub fn markdown(&self, workload: &str) -> String {
        let mut s = format!("| {workload} span | corrected ms | share |\n|---|---:|---:|\n");
        let total = self.total_ms.max(f64::MIN_POSITIVE);
        let rows = self.rows.iter().map(|(k, v)| (k.as_str(), *v));
        for (name, ms) in rows.chain([("(unattributed)", self.unattributed_ms)]) {
            let _ = writeln!(s, "| {name} | {ms:.3} | {:.1}% |", 100.0 * ms / total);
        }
        let _ = writeln!(s, "| **total** | {:.3} | 100.0% |", self.total_ms);
        s
    }

    /// JSON rendering with the same rows as [`LayerTable::markdown`].
    pub fn json(&self, workload: &str) -> String {
        let rows: Vec<String> =
            self.rows.iter().map(|(k, v)| format!("{{\"span\": \"{k}\", \"ms\": {v}}}")).collect();
        format!(
            "{{\"workload\": \"{workload}\", \"rows\": [{}], \"unattributed_ms\": {}, \"total_ms\": {}}}\n",
            rows.join(", "),
            self.unattributed_ms,
            self.total_ms
        )
    }
}
