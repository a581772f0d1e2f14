//! `pipeline-train`: the Table III/IV experiment at reduced size.
//!
//! ConvNet Parallel#1 (dense) and Parallel#3 (16 groups) trained on
//! synthetic ImageNet10, and an MLP trained under SS_Mask group Lasso,
//! pruned and fine-tuned on synthetic MNIST. Each network is deployed at
//! i16, planned and priced on the paper's 16-core chip. Almost all host
//! time is training, so kernel and convolution work shows here and NoC
//! work does not.

use super::{add_system_counts, evaluate, Error, Rep, Workload};
use crate::checks::{self, Fixed};
use crate::trace::Spans;
use lts_core::experiment::train_presets;
use lts_core::pipeline::{
    calibration_batch, plan_for_precision, strength_mask, CALIBRATION_SAMPLES,
};
use lts_core::{Precision, SparsityScheme, SystemModel, SystemReport};
use lts_datasets::{presets, TrainTest};
use lts_nn::models;
use lts_nn::prune::{prune_groups, PruneCriterion};
use lts_nn::trainer::{TrainConfig, Trainer};
use lts_nn::{quantized_parallel_accuracy, GroupLasso, Network, QuantizedNetwork};
use lts_partition::Plan;

const CORES: usize = 16;
const CLASSES: usize = 10;
const TRAIN_SAMPLES: usize = 96;
const TEST_SAMPLES: usize = 64;
const EVAL_BATCH: usize = 64;
/// Group-Lasso strength and prune rule of the MLP's SS_Mask run (one
/// point of the Table IV λ grid).
const LAMBDA: f32 = 1.0;
const PRUNE: PruneCriterion = PruneCriterion::RmsBelowRelative(0.35);
/// Fine-tuning after pruning: epochs and learning-rate multiplier.
const FINE_TUNE_EPOCHS: usize = 1;
const FINE_TUNE_LR_SCALE: f32 = 0.2;

/// Training schedule of the two ConvNets: two epochs of 96 samples keep
/// a repetition near four seconds, and batches of 4 at half the Table III
/// rate give them enough steps to beat chance on every seed tried.
fn conv_train(seed: u64) -> TrainConfig {
    train_config(seed, 2, 4, train_presets::CONVNET.0 / 2.0)
}

/// Training schedule of the MLP, at the Table IV MLP rate.
fn mlp_train(seed: u64) -> TrainConfig {
    train_config(seed, 3, 8, train_presets::MLP.0)
}

fn train_config(seed: u64, epochs: usize, batch_size: usize, lr: f32) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        lr,
        momentum: 0.9,
        weight_decay: 1e-4,
        lr_decay: 0.85,
        clip_grad_norm: 5.0,
        seed,
    }
}

/// The three networks, untrained, with their data and configuration.
pub struct Inputs {
    imagenet: TrainTest,
    mnist: TrainTest,
    nets: [Network; 3],
    conv_train: TrainConfig,
    mlp_train: TrainConfig,
    model: SystemModel,
}

/// One trained, deployed and priced network.
pub struct Part {
    accuracy: f32,
    report: SystemReport,
    traffic_bytes: u64,
    groups_pruned: usize,
    /// Training samples × epochs over every training phase.
    samples_epochs: f64,
    /// Approximate MACs of the `nn.train` span: 3 × forward MACs per
    /// sample-epoch (forward, input gradient, weight gradient).
    train_macs: f64,
    /// Forward MACs of the `nn.deploy_i16` span (calibration + test set).
    infer_macs: f64,
}

/// The `pipeline-train` workload.
pub struct PipelineTrain;

impl Workload for PipelineTrain {
    type Inputs = Inputs;
    type Part = Part;

    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Inputs, Error> {
        let (n_train, n_test) = (TRAIN_SAMPLES, TEST_SAMPLES);
        let imagenet =
            spans.span("datasets.gen", || presets::synth_imagenet10(n_train, n_test, seed));
        let mnist = spans.span("datasets.gen", || presets::synth_mnist(n_train, n_test, seed));
        let nets = spans.span("nn.build", || -> Result<[Network; 3], Error> {
            Ok([
                models::convnet_variant([64, 128, 256], 1, seed)?,
                models::convnet_variant([64, 160, 320], CORES, seed)?,
                models::mlp(28 * 28, CLASSES, seed)?,
            ])
        })?;
        let model = SystemModel::paper(CORES)?;
        Ok(Inputs {
            imagenet,
            mnist,
            nets,
            conv_train: conv_train(seed),
            mlp_train: mlp_train(seed),
            model,
        })
    }

    fn segments(&self, inputs: &Inputs) -> usize {
        inputs.nets.len()
    }

    fn segment(&self, inputs: &Inputs, i: usize, spans: &mut Spans) -> Result<Part, Error> {
        let mut net = inputs.nets[i].clone();
        let forward_macs = net.spec().total_macs() as f64;
        let sparse = i == 2;
        let (data, config) = if sparse {
            (&inputs.mnist, inputs.mlp_train)
        } else {
            (&inputs.imagenet, inputs.conv_train)
        };
        let samples = data.train.len() as f64;
        let (images, labels) = (&data.train.images, &data.train.labels);

        let mut groups_pruned = 0;
        let mut train = config;
        let mut samples_epochs = samples * config.epochs as f64;
        if sparse {
            // train_sparsified's steps: regularize the layers whose input
            // crosses the NoC, prune, then fine-tune the survivors.
            let dense = spans.span("partition.plan", || {
                Plan::dense(&net.spec(), CORES, Precision::I16.bytes_per_value())
            })?;
            groups_pruned = spans.span("nn.sparsify", || -> Result<usize, Error> {
                let mask = strength_mask(CORES, SparsityScheme::mask())?;
                let targeted: Vec<_> = dense
                    .layers
                    .iter()
                    .filter(|lp| !lp.traffic.is_empty())
                    .filter_map(|lp| lp.layout.clone().map(|l| (lp.spec.name.clone(), l)))
                    .collect();
                let mut trainer = Trainer::new(config)?;
                for (layer, layout) in &targeted {
                    trainer = trainer.with_regularizer(GroupLasso::new(
                        layer,
                        layout.clone(),
                        LAMBDA,
                        mask.clone(),
                    )?);
                }
                trainer.train(&mut net, images, labels)?;
                let mut pruned = 0;
                for (layer, layout) in &targeted {
                    let param = net.layer_weight_mut(layer).ok_or("regularized layer vanished")?;
                    pruned += prune_groups(param, layout, PRUNE)?.groups_pruned;
                }
                Ok(pruned)
            })?;
            train = TrainConfig {
                epochs: FINE_TUNE_EPOCHS,
                lr: config.lr * FINE_TUNE_LR_SCALE,
                ..config
            };
            samples_epochs += samples * train.epochs as f64;
        }
        spans.span("nn.train", || -> Result<(), Error> {
            Trainer::new(train)?.train(&mut net, images, labels)?;
            Ok(())
        })?;
        let train_macs = 3.0 * forward_macs * samples * train.epochs as f64;

        let accuracy = spans.span("nn.deploy_i16", || -> Result<f32, Error> {
            let deployed = QuantizedNetwork::from_network(&net, &calibration_batch(data)?)?;
            // One evaluation stripe: the benchmark pins a single worker.
            Ok(quantized_parallel_accuracy(
                &deployed,
                &data.test.images,
                &data.test.labels,
                EVAL_BATCH,
                1,
            )?)
        })?;
        let calibrated = data.train.take(CALIBRATION_SAMPLES).len();
        let infer_macs = forward_macs * (calibrated + data.test.len()) as f64;

        let plan = spans.span("partition.plan", || {
            plan_for_precision(&net, CORES, sparse, true, Precision::I16)
        })?;
        let report = evaluate(&inputs.model, &plan, spans)?;
        Ok(Part {
            accuracy,
            report,
            traffic_bytes: plan.total_traffic_bytes(),
            groups_pruned,
            samples_epochs,
            train_macs,
            infer_macs,
        })
    }

    fn finish(&self, _inputs: &Inputs, parts: Vec<Part>) -> Rep {
        let mut fixed = Fixed::new();
        let mut failures = Vec::new();
        for (name, part) in ["Parallel#1", "Parallel#3", "MLP"].iter().zip(&parts) {
            add_system_counts(&mut fixed, &part.report);
            let counts = [
                ("partition.traffic_bytes", part.traffic_bytes as f64),
                ("nn.groups_pruned", part.groups_pruned as f64),
                ("nn.train_macs", part.train_macs),
                ("nn.infer_macs", part.infer_macs),
                ("top1_accuracy", f64::from(part.accuracy) / parts.len() as f64),
            ];
            for (k, v) in counts {
                *fixed.entry(k).or_insert(0.0) += v;
            }
            failures.extend(checks::above_chance(name, part.accuracy, CLASSES).err());
        }
        if let [p1, p3, _] = parts.as_slice() {
            failures.extend(
                checks::grouped_comm_below_dense(p1.report.comm_cycles, p3.report.comm_cycles)
                    .err(),
            );
        }
        let units = parts.iter().map(|p| p.samples_epochs).sum();
        Rep { units, fixed, failures }
    }
}
