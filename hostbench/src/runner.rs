//! Runs a workload for a fixed time: repeated bracketed set-ups, then
//! repetitions of the workload's unit until the time is up, each on a
//! cold simcache, with every output checked.

use crate::checks::{self, Fixed};
use crate::host::{median, Bracketed, Corrector};
use crate::trace::{LayerTable, Spans};
use crate::workloads::{Error, Rep, Workload};
use lts_core::simcache;
use lts_tensor::{par, ExecConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Bracketed set-up executions whose median is `setup_s`.
pub const SETUP_RUNS: usize = 7;
/// Fewest repetitions of each kind, even past the deadline.
pub const MIN_REPS: usize = 3;

/// What one run measured.
#[derive(Debug)]
pub struct Measurement {
    /// Median corrected set-up time, in seconds.
    pub setup_s: f64,
    /// Median corrected time of one untraced repetition, in seconds.
    pub run_s: f64,
    /// Median raw wall time of one untraced repetition, in seconds.
    pub wall_run_s: f64,
    /// Units of work per repetition.
    pub units: f64,
    /// Fixed outputs of the first untraced repetition.
    pub fixed: Fixed,
    /// Repetitions run and checked.
    pub attempted: usize,
    /// Repetitions with a failed check.
    pub failed: usize,
    /// Every failed check, in order.
    pub failures: Vec<String>,
    /// Every reference reading, in seconds.
    pub ref_readings: Vec<f64>,
    /// Share of repetitions whose mean reading exceeds 1.2× the fastest
    /// reading of the run: how much of the run the host spent slow.
    pub slow_rep_frac: f64,
    /// The traced half of a `--trace 1` run.
    pub trace: Option<Traced>,
}

/// The traced half of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer table of the traced set-up and mean traced repetition.
    pub table: LayerTable,
    /// Median corrected time of one traced repetition, in seconds.
    pub run_s: f64,
}

/// The timing of one repetition.
struct RepTiming {
    corrected_s: f64,
    wall_s: f64,
    mean_ref_s: f64,
}

/// Runs `workload` on `seed` for about `seconds`. With `trace`, traced
/// and untraced repetitions alternate, and the per-layer table comes
/// from the traced ones.
///
/// # Errors
///
/// The first error any layer returns.
pub fn measure<W: Workload>(
    workload: &W,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Measurement, Error> {
    // One worker, whatever the environment says: on a small host a second
    // worker would put the OS scheduler into every number.
    par::install(ExecConfig::new(1));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut c = Corrector::new();

    let mut setup_times = Vec::with_capacity(SETUP_RUNS);
    let mut inputs = None;
    for _ in 0..SETUP_RUNS {
        simcache::reset();
        // Free the previous inputs before building the next.
        drop(inputs.take());
        let (built, b) = c.bracket(|| workload.setup(seed, &mut Spans::off()));
        inputs = Some(built?);
        setup_times.push(b.corrected_s());
    }
    let mut traced_setup = None;
    if trace {
        simcache::reset();
        drop(inputs.take());
        let mut spans = Spans::on();
        let (built, b) = c.bracket(|| workload.setup(seed, &mut spans));
        inputs = Some(built?);
        let mut rows = BTreeMap::new();
        spans.add_scaled_ms(b.factor(), &mut rows);
        traced_setup = Some((rows, b.corrected_s()));
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    let mut plain = Series::default();
    let mut traced = Series::default();
    let mut traced_rows = BTreeMap::new();
    // Stop before a repetition that would overrun the deadline, judged
    // by the last round's wall time.
    let mut round = Duration::ZERO;
    while plain.timings.len() < MIN_REPS || Instant::now() + round <= deadline {
        let t = Instant::now();
        plain.push(rep(workload, &inputs, &mut c, None)?);
        if trace {
            traced.push(rep(workload, &inputs, &mut c, Some(&mut traced_rows))?);
        }
        round = t.elapsed();
    }

    let fastest = c.readings().iter().copied().fold(f64::INFINITY, f64::min);
    let all: Vec<&RepTiming> = plain.timings.iter().chain(&traced.timings).collect();
    let slow = all.iter().filter(|t| t.mean_ref_s > 1.2 * fastest).count();
    let trace = traced_setup.map(|(mut rows, setup_ms)| {
        let n = traced.timings.len() as f64;
        for (name, ms) in traced_rows {
            *rows.entry(name).or_insert(0.0) += ms / n;
        }
        let rep_ms = traced.timings.iter().map(|t| t.corrected_s).sum::<f64>() * 1e3 / n;
        Traced { table: LayerTable::new(rows, setup_ms * 1e3 + rep_ms), run_s: traced.run_s() }
    });
    let run_s = plain.run_s();
    let wall_run_s = median(&plain.timings.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let first = plain.first.ok_or("no repetition ran")?;
    Ok(Measurement {
        setup_s: median(&setup_times),
        run_s,
        wall_run_s,
        units: first.units,
        fixed: first.fixed,
        attempted: all.len(),
        failed: plain.failed + traced.failed,
        failures: plain.failures.into_iter().chain(traced.failures).collect(),
        ref_readings: c.readings().to_vec(),
        slow_rep_frac: slow as f64 / all.len() as f64,
        trace,
    })
}

/// Repetitions of one kind (traced or untraced) and their checks.
#[derive(Default)]
struct Series {
    timings: Vec<RepTiming>,
    first: Option<Rep>,
    failed: usize,
    failures: Vec<String>,
}

impl Series {
    fn push(&mut self, (timing, rep): (RepTiming, Rep)) {
        eprintln!(
            "hostbench: rep {}: wall {:.4} s, mean reference {:.4} ms, corrected {:.4} s",
            self.timings.len(),
            timing.wall_s,
            timing.mean_ref_s * 1e3,
            timing.corrected_s
        );
        let mut failures = rep.failures.clone();
        if let Some(first) = &self.first {
            failures.extend(checks::identical(&first.fixed, &rep.fixed).err());
        } else {
            self.first = Some(rep);
        }
        self.failed += usize::from(!failures.is_empty());
        self.failures.extend(failures);
        self.timings.push(timing);
    }

    fn run_s(&self) -> f64 {
        median(&self.timings.iter().map(|t| t.corrected_s).collect::<Vec<_>>())
    }
}

/// One repetition on a cold simcache, each segment bracketed. Given
/// `rows`, the repetition is traced: its spans are scaled by their
/// segment's correction and added there.
fn rep<W: Workload>(
    workload: &W,
    inputs: &W::Inputs,
    c: &mut Corrector,
    mut rows: Option<&mut BTreeMap<String, f64>>,
) -> Result<(RepTiming, Rep), Error> {
    simcache::reset();
    let n = workload.segments(inputs);
    let mut parts = Vec::with_capacity(n);
    let mut brackets: Vec<Bracketed> = Vec::with_capacity(n);
    for i in 0..n {
        let mut spans = if rows.is_some() { Spans::on() } else { Spans::off() };
        let (part, b) = c.bracket(|| workload.segment(inputs, i, &mut spans));
        parts.push(part?);
        if let Some(rows) = rows.as_deref_mut() {
            spans.add_scaled_ms(b.factor(), rows);
        }
        brackets.push(b);
    }
    let timing = RepTiming {
        corrected_s: brackets.iter().map(Bracketed::corrected_s).sum(),
        wall_s: brackets.iter().map(|b| b.wall_s).sum(),
        mean_ref_s: brackets.iter().map(|b| (b.ref_before_s + b.ref_after_s) / 2.0).sum::<f64>()
            / n as f64,
    };
    Ok((timing, workload.finish(inputs, parts)))
}
