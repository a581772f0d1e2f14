//! Metric names, units and values, and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares.

use crate::host::{median, Corrector};
use crate::runner::{Measurement, Traced};
use lts_tensor::matmul::matmul_into;
use lts_tensor::qmatmul::matmul_a_bt_i16_into;
use std::hint::black_box;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_kcycles", "kcycles"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("datasets.gen_ms", "ms"),
    ("tensor.gemm_f32_peak_gmac_per_s", "GMAC/s"),
    ("tensor.gemm_i16_peak_gmac_per_s", "GMAC/s"),
    ("nn.train_ms", "ms"),
    ("nn.train_gmac_per_s", "GMAC/s"),
    ("nn.train_pct_of_peak", "%"),
    ("nn.sparsify_ms", "ms"),
    ("nn.groups_pruned", "count"),
    ("nn.deploy_i16_ms", "ms"),
    ("nn.infer_i16_gmac_per_s", "GMAC/s"),
    ("partition.plan_ms", "ms"),
    ("partition.traffic_bytes", "bytes"),
    ("accel.compute_kcycles", "kcycles"),
    ("noc.run_ms", "ms"),
    ("noc.flit_hops_per_s", "1/s"),
    ("noc.cycles_simulated", "cycles"),
    ("noc.cycles_fast_forwarded", "cycles"),
    ("noc.ff_ratio", "fraction"),
    ("noc.inter_chip_traversals", "count"),
    ("noc.blocked_flit_cycles", "cycles"),
    ("core.system_evaluate_ms", "ms"),
    ("core.sims", "count"),
    ("core.simcache_hits", "count"),
    ("core.simcache_hit_ratio", "fraction"),
    ("core.serve_ms", "ms"),
    ("core.serve_us_per_request", "us"),
    ("core.serve_batches", "count"),
    ("core.serve_recoveries", "count"),
    ("core.serve_shed_rate", "fraction"),
    ("host.ref_ms", "ms"),
    ("host.wall_run_s", "s"),
    ("host.slow_rep_frac", "fraction"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("noc_energy_uj", "uJ"),
    ("top1_accuracy", "fraction"),
    ("served_frac", "fraction"),
    ("p99_kcycles", "kcycles"),
];

/// Peak resident memory of this process so far, in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metric values of `m`, in [`END_TO_END`] order.
pub fn end_to_end(m: &Measurement, peak_rss_mb: f64) -> Vec<f64> {
    vec![m.setup_s, m.run_s, m.units / m.run_s, peak_rss_mb, fixed(m, "sim_kcycles")]
}

/// Corrected 256³ GEMM throughput of the f32 and i16 kernels the layers
/// call, in GMAC/s: the base of the `pct_of_peak` rows.
pub fn gemm_peaks() -> (f64, f64) {
    const N: usize = 256;
    const CALLS: usize = 8;
    let macs = (N * N * N * CALLS) as f64;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.5 - 1.5).collect();
    let mut c = vec![0.0f32; N * N];
    let qa: Vec<i16> = (0..N * N).map(|i| (i % 251) as i16 - 125).collect();
    let qb: Vec<i16> = (0..N * N).map(|i| (i % 241) as i16 - 120).collect();
    let mut qc = vec![0i32; N * N];
    let mut corrector = Corrector::new();
    let mut f32_s = Vec::new();
    let mut i16_s = Vec::new();
    for _ in 0..5 {
        let (_, b32) = corrector.bracket(|| {
            for _ in 0..CALLS {
                matmul_into(black_box(&a), black_box(&b), black_box(&mut c), N, N, N);
            }
        });
        f32_s.push(b32.corrected_s());
        let (_, b16) = corrector.bracket(|| {
            for _ in 0..CALLS {
                matmul_a_bt_i16_into(black_box(&qa), black_box(&qb), black_box(&mut qc), N, N, N);
            }
        });
        i16_s.push(b16.corrected_s());
    }
    (macs / median(&f32_s) / 1e9, macs / median(&i16_s) / 1e9)
}

/// The per-layer metric values of `m` and its traced half, in
/// [`PER_LAYER`] order. A layer the workload does not exercise reads 0.
pub fn per_layer(m: &Measurement, traced: &Traced, peaks: (f64, f64)) -> Vec<f64> {
    let table = &traced.table;
    let ms = |name: &str| table.ms(name);
    let per_s = |count: f64, ms: f64| if ms > 0.0 { count / (ms / 1e3) } else { 0.0 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let f = |name: &str| fixed(m, name);
    let train_gmac = per_s(f("nn.train_macs"), ms("nn.train")) / 1e9;
    let ff = f("noc.cycles_fast_forwarded");
    let hits = f("core.simcache_hits");
    vec![
        ms("datasets.gen"),
        peaks.0,
        peaks.1,
        ms("nn.train"),
        train_gmac,
        100.0 * ratio(train_gmac, peaks.0),
        ms("nn.sparsify"),
        f("nn.groups_pruned"),
        ms("nn.deploy_i16"),
        per_s(f("nn.infer_macs"), ms("nn.deploy_i16")) / 1e9,
        ms("partition.plan"),
        f("partition.traffic_bytes"),
        f("accel.compute_kcycles"),
        ms("noc.run"),
        per_s(f("noc.flit_hops"), ms("noc.run")),
        f("noc.cycles_simulated"),
        ff,
        ratio(ff, ff + f("noc.cycles_simulated")),
        f("noc.inter_chip_traversals"),
        f("noc.blocked_flit_cycles"),
        ms("core.system_evaluate"),
        f("core.sims"),
        hits,
        ratio(hits, hits + f("core.sims")),
        ms("core.serve"),
        1e3 * ratio(ms("core.serve"), f("core.serve_requests")),
        f("core.serve_batches"),
        f("core.serve_recoveries"),
        f("core.serve_shed_rate"),
        median(&m.ref_readings) * 1e3,
        m.wall_run_s,
        m.slow_rep_frac,
        table.unattributed_ms,
        100.0 * (traced.run_s / m.run_s - 1.0),
        f("noc_energy_uj"),
        f("top1_accuracy"),
        f("served_frac"),
        f("p99_kcycles"),
    ]
}

fn fixed(m: &Measurement, name: &str) -> f64 {
    m.fixed.get(name).copied().unwrap_or(0.0)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric by name with its unit.
pub fn result_line(m: &Measurement, names: &[(&str, &str)], values: &[f64]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            // JSON has no NaN or infinity; a non-finite value is a bug
            // in a derived rate, reported as a failed run below.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let finite = values.iter().all(|v| v.is_finite());
    let failed = m.failed + usize::from(!finite);
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        m.attempted,
        metrics.join(", ")
    )
}
