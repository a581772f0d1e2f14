//! The three workloads. Each composes the library's public calls the way
//! `lts_core::pipeline` does, wrapping every call into a layer in a span.

pub mod noc_alexnet;
pub mod pipeline_train;
pub mod serve_fault;

use crate::checks::Fixed;
use crate::trace::Spans;
use lts_core::simcache::{self, SimUsage};
use lts_core::{SystemModel, SystemReport};
use lts_noc::Simulator;
use lts_partition::Plan;

/// Boxed error of any layer.
pub type Error = Box<dyn std::error::Error>;

/// One workload: a set-up producing its inputs from the seed, and a
/// repetition made of segments that are timed one by one.
pub trait Workload {
    /// Everything the repetitions read.
    type Inputs;
    /// What one segment returns.
    type Part;

    /// Builds the inputs from `seed`.
    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Self::Inputs, Error>;

    /// Segments in one repetition.
    fn segments(&self, inputs: &Self::Inputs) -> usize;

    /// Runs segment `i` of a repetition.
    fn segment(
        &self,
        inputs: &Self::Inputs,
        i: usize,
        spans: &mut Spans,
    ) -> Result<Self::Part, Error>;

    /// Folds a repetition's parts into its checked outputs.
    fn finish(&self, inputs: &Self::Inputs, parts: Vec<Self::Part>) -> Rep;
}

/// The outputs of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Units of work done (the numerator of `work_per_s`).
    pub units: f64,
    /// Outputs fixed by the seed: end-to-end results and layer counts.
    pub fixed: Fixed,
    /// Checks that failed.
    pub failures: Vec<String>,
}

/// Prices `plan` on `model`. When traced, the plan's traces are first
/// simulated on a cold simcache under the `noc.run` span, so the
/// `core.system_evaluate` span that follows times the system model's own
/// work: every lookup then hits.
pub fn evaluate(
    model: &SystemModel,
    plan: &Plan,
    spans: &mut Spans,
) -> Result<SystemReport, Error> {
    if spans.is_on() {
        spans.span("noc.run", || -> Result<(), Error> {
            let config = model.noc_config();
            let fault = model.fault_model();
            let mut sim = Simulator::with_faults(*config, fault.clone())?;
            let mut usage = SimUsage::default();
            for lp in plan.layers.iter().filter(|lp| !lp.traffic.is_empty()) {
                simcache::run_cached(&mut sim, config, fault, &lp.traffic.messages, &mut usage)?;
            }
            Ok(())
        })?;
    }
    Ok(spans.span("core.system_evaluate", || model.evaluate(plan))?)
}

/// Adds a system report's layer counts into `fixed`.
pub fn add_system_counts(fixed: &mut Fixed, report: &SystemReport) {
    let blocked: u64 = report.layers.iter().map(|l| l.blocked_flit_cycles).sum();
    let counts = [
        ("sim_kcycles", report.total_cycles as f64 / 1e3),
        ("noc_energy_uj", report.noc_energy_pj / 1e6),
        ("accel.compute_kcycles", report.compute_cycles as f64 / 1e3),
        ("noc.flit_hops", (report.intra_chip_traversals + report.inter_chip_traversals) as f64),
        ("noc.inter_chip_traversals", report.inter_chip_traversals as f64),
        ("noc.blocked_flit_cycles", blocked as f64),
    ];
    for (name, v) in counts {
        *fixed.entry(name).or_insert(0.0) += v;
    }
    add_sim_usage(fixed, &report.sim);
}

/// Adds simulated-vs-cached NoC accounting into `fixed`.
pub fn add_sim_usage(fixed: &mut Fixed, usage: &SimUsage) {
    let counts = [
        ("noc.cycles_simulated", usage.cycles_simulated as f64),
        ("noc.cycles_fast_forwarded", usage.cycles_fast_forwarded as f64),
        ("core.sims", usage.sims as f64),
        ("core.simcache_hits", usage.cache_hits as f64),
    ];
    for (name, v) in counts {
        *fixed.entry(name).or_insert(0.0) += v;
    }
}

/// Deterministic 64-bit generator for the benchmark's own draws, so the
/// inputs stay the same when the library's generator changes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
