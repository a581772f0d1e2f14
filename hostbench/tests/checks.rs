//! Every output check passes on a good report and fails on a perturbed one.

use hostbench::checks::{self, Fixed};
use hostbench::workloads::noc_alexnet;
use lts_core::serve::{
    run_serving, service_capacity_rpmc, ArrivalConfig, ArrivalProcess, ServingConfig,
    ServingStrategy, StreamFault,
};
use lts_core::{Outcome, SystemModel, SystemReport};
use lts_nn::descriptor::lenet_spec;
use lts_partition::Plan;
use std::collections::HashMap;

#[test]
fn identical_outputs_pass_and_any_changed_bit_fails() {
    let first: Fixed = [("sim_kcycles", 9.427), ("top1_accuracy", 0.5)].into_iter().collect();
    assert_eq!(checks::identical(&first, &first.clone()), Ok(()));

    let mut nudged = first.clone();
    nudged.insert("top1_accuracy", f64::from_bits(0.5f64.to_bits() + 1));
    assert!(checks::identical(&first, &nudged).is_err());

    let mut extra = first.clone();
    extra.insert("p99_kcycles", 1.0);
    assert!(checks::identical(&first, &extra).is_err());

    let mut missing = first.clone();
    missing.remove("sim_kcycles");
    assert!(checks::identical(&first, &missing).is_err());
}

#[test]
fn grouped_comm_must_be_strictly_below_dense() {
    assert!(checks::grouped_comm_below_dense(1829, 298).is_ok());
    assert!(checks::grouped_comm_below_dense(298, 298).is_err());
    assert!(checks::grouped_comm_below_dense(298, 1829).is_err());
}

#[test]
fn accuracy_must_beat_chance() {
    assert!(checks::above_chance("net", 0.11, 10).is_ok());
    assert!(checks::above_chance("net", 0.1, 10).is_err());
    assert!(checks::above_chance("net", 0.0, 10).is_err());
}

/// LeNet's dense plan, and a plan with every upper-triangle
/// producer×consumer block zero, priced on the mesh and on the 4 × 4
/// module in `noc_alexnet::check`'s case order.
fn lenet_reports() -> Vec<SystemReport> {
    let spec = lenet_spec();
    let dense = Plan::dense(&spec, 16, 2).unwrap();
    let mut weights = HashMap::new();
    for lp in dense.layers.iter().filter(|lp| !lp.traffic.is_empty()) {
        let layout = lp.layout.as_ref().unwrap();
        let mut w = vec![1.0f32; layout.weight_len()];
        for p in 0..16 {
            for c in p + 1..16 {
                layout.visit_group(p, c, |i| w[i] = 0.0);
            }
        }
        weights.insert(lp.spec.name.clone(), w);
    }
    let sparse = Plan::build(&spec, 16, &weights, 2).unwrap();
    let mesh = SystemModel::paper(16).unwrap();
    let mcm = SystemModel::paper_mcm(4, 4).unwrap();
    [(&mesh, &dense), (&mesh, &sparse), (&mcm, &dense), (&mcm, &sparse)]
        .into_iter()
        .map(|(model, plan)| model.evaluate(plan).unwrap())
        .collect()
}

#[test]
fn noc_checks_fail_on_perturbed_reports() {
    let good = lenet_reports();
    assert_eq!(noc_alexnet::check(&good), Vec::<String>::new());

    let mut dense_sized = good.clone();
    dense_sized[3].traffic_bytes = dense_sized[2].traffic_bytes;
    assert_eq!(noc_alexnet::check(&dense_sized).len(), 1);

    let mut mesh_crossing = good.clone();
    mesh_crossing[0].inter_chip_traversals = 1;
    assert_eq!(noc_alexnet::check(&mesh_crossing).len(), 1);

    let mut mcm_on_die = good.clone();
    mcm_on_die[3].inter_chip_traversals = 0;
    assert_eq!(noc_alexnet::check(&mcm_on_die).len(), 1);

    assert_eq!(noc_alexnet::check(&good[..3]).len(), 1);
}

#[test]
fn serving_checks_fail_on_perturbed_reports() {
    let mut config = ServingConfig {
        cores: 16,
        max_batch: 4,
        strategy: ServingStrategy::Traditional,
        ..ServingConfig::default()
    };
    let capacity = service_capacity_rpmc(&config).unwrap();
    config.arrivals = ArrivalConfig {
        process: ArrivalProcess::Poisson { rate_rpmc: 2.0 * capacity },
        horizon_cycles: 4_000_000,
        seed: 7,
    };
    config.faults = vec![StreamFault { at_cycle: 2_000_000, dead_cores: vec![5] }];
    let offered = config.arrivals.times().unwrap().len();
    let good = run_serving(&config).unwrap();
    assert_eq!(checks::serving_recovered(&good, offered), Ok(()));

    assert!(checks::serving_recovered(&good, offered + 1).is_err());

    let mut lost = good.clone();
    lost.outcomes.record(Outcome::Served);
    assert!(checks::serving_recovered(&lost, offered).is_err());

    let mut twice = good.clone();
    twice.recoveries.push(twice.recoveries[0].clone());
    assert!(checks::serving_recovered(&twice, offered).is_err());

    let mut never = good.clone();
    never.recoveries.clear();
    assert!(checks::serving_recovered(&never, offered).is_err());

    let mut halted = good.clone();
    halted.halted_at = Some(3_000_000);
    assert!(checks::serving_recovered(&halted, offered).is_err());
}
