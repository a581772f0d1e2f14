//! `noc-alexnet`: the AlexNet descriptor priced without training.
//!
//! A dense plan and a block-sparse plan, each on the paper's 16-core mesh
//! and on a 4-chiplet × 4-core multi-chip module, evaluated on a cold
//! simcache. Nearly all host time is NoC stepping on cache misses, so
//! this is the no-change control for training work. Dense traffic
//! saturates links while sparse traffic leaves idle cycles to
//! fast-forward, and the module adds interposer hops, so a stepper change
//! that helps one traffic shape and costs the other shows here.

use super::{add_system_counts, evaluate, Error, Rep, SplitMix64, Workload};
use crate::checks::{self, Fixed};
use crate::trace::Spans;
use lts_core::{Precision, SystemModel, SystemReport};
use lts_nn::descriptor::alexnet_spec;
use lts_partition::Plan;
use std::collections::HashMap;

/// Share of each layer's off-diagonal producer×consumer blocks the
/// sparse plan zeroes.
const ZERO_BLOCK_FRAC: f64 = 0.5;
/// Cores of both packages: the mesh, and 4 chiplets of 4 cores. A
/// 4 × 16-core module was the first choice, but its dense case alone
/// took 7 s of host time, longer than the host's mode dwell.
const CORES: usize = 16;

/// The two plans and the two packages they are priced on.
pub struct Inputs {
    /// The dense and the block-sparse plan, both on 16 cores.
    plans: [Plan; 2],
    /// The 16-core mesh and the 4-chiplet × 4-core module.
    models: [SystemModel; 2],
}

/// Segment `i` prices plan `i % 2` on package `i / 2`.
const CASES: [&str; 4] = ["mesh-dense", "mesh-sparse", "mcm-dense", "mcm-sparse"];

/// The `noc-alexnet` workload.
pub struct NocAlexnet;

impl Workload for NocAlexnet {
    type Inputs = Inputs;
    type Part = SystemReport;

    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Inputs, Error> {
        let spec = alexnet_spec();
        let width = Precision::I16.bytes_per_value();
        let dense = spans.span("partition.plan", || Plan::dense(&spec, CORES, width))?;
        let weights =
            spans.span("inputs.block_mask", || zero_blocks(&dense, &mut SplitMix64::new(seed)));
        let sparse = spans.span("partition.plan", || Plan::build(&spec, CORES, &weights, width))?;
        let models = [SystemModel::paper(CORES)?, SystemModel::paper_mcm(4, CORES / 4)?];
        Ok(Inputs { plans: [dense, sparse], models })
    }

    fn segments(&self, _inputs: &Inputs) -> usize {
        CASES.len()
    }

    fn segment(&self, inputs: &Inputs, i: usize, spans: &mut Spans) -> Result<SystemReport, Error> {
        evaluate(&inputs.models[i / 2], &inputs.plans[i % 2], spans)
    }

    fn finish(&self, inputs: &Inputs, reports: Vec<SystemReport>) -> Rep {
        let mut fixed = Fixed::new();
        for (i, report) in reports.iter().enumerate() {
            add_system_counts(&mut fixed, report);
            *fixed.entry("partition.traffic_bytes").or_insert(0.0) +=
                inputs.plans[i % 2].total_traffic_bytes() as f64;
        }
        let failures = check(&reports);
        let units = fixed.get("noc.flit_hops").copied().unwrap_or(0.0);
        Rep { units, fixed, failures }
    }
}

/// The checks on the four reports, in [`CASES`] order: sparse traffic
/// is below dense on both packages, and only the module crosses seams.
pub fn check(reports: &[SystemReport]) -> Vec<String> {
    let [mesh_dense, mesh_sparse, mcm_dense, mcm_sparse] = reports else {
        return vec![format!("{} reports for {} cases", reports.len(), CASES.len())];
    };
    let mut failures = Vec::new();
    for (topology, dense, sparse) in
        [("mesh", mesh_dense, mesh_sparse), ("mcm", mcm_dense, mcm_sparse)]
    {
        failures.extend(
            checks::sparse_below_dense(topology, dense.traffic_bytes, sparse.traffic_bytes).err(),
        );
    }
    for (mesh, mcm) in [(mesh_dense, mcm_dense), (mesh_sparse, mcm_sparse)] {
        failures.extend(
            checks::inter_chip_only_on_mcm(mesh.inter_chip_traversals, mcm.inter_chip_traversals)
                .err(),
        );
    }
    failures
}

/// Weights for [`Plan::build`] in which a seeded [`ZERO_BLOCK_FRAC`] of
/// each communicating layer's off-diagonal producer×consumer blocks is
/// zero, drawn through `GroupLayout::visit_group`.
fn zero_blocks(dense: &Plan, rng: &mut SplitMix64) -> HashMap<String, Vec<f32>> {
    let mut weights = HashMap::new();
    for lp in dense.layers.iter().filter(|lp| !lp.traffic.is_empty()) {
        let Some(layout) = &lp.layout else { continue };
        let cores = layout.cores();
        let mut blocks: Vec<(usize, usize)> = (0..cores)
            .flat_map(|p| (0..cores).map(move |c| (p, c)))
            .filter(|(p, c)| p != c)
            .collect();
        // Partial Fisher-Yates: the first `zeroed` entries are the draw.
        let zeroed = (blocks.len() as f64 * ZERO_BLOCK_FRAC).round() as usize;
        for k in 0..zeroed {
            let j = k + rng.below(blocks.len() - k);
            blocks.swap(k, j);
        }
        let mut w = vec![1.0f32; layout.weight_len()];
        for &(p, c) in &blocks[..zeroed] {
            layout.visit_group(p, c, |i| w[i] = 0.0);
        }
        weights.insert(lp.spec.name.clone(), w);
    }
    weights
}
