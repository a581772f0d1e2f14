//! `serve-fault`: open-loop serving through a core death.
//!
//! A seeded Poisson stream at twice the Traditional strategy's saturated
//! service capacity (16 cores, batches of up to 4), scheduled in
//! simulated cycles, so the generator can never run late on the host.
//! One core dies at half the horizon. Host time goes to the serving
//! event loop and the simcache hit path — the opposite of
//! `noc-alexnet`'s misses — plus admission shedding and one recovery.

use super::{add_sim_usage, Error, Rep, Workload};
use crate::checks::{self, Fixed};
use crate::trace::Spans;
use lts_core::serve::{
    run_serving, service_capacity_rpmc, ArrivalConfig, ArrivalProcess, ServingConfig,
    ServingReport, ServingStrategy, StreamFault,
};

/// Simulated cycles of open-loop arrivals. A 50 M-cycle run takes about
/// a second of host time; a 200 M-cycle run took two, and the medians of
/// the fewer, longer repetitions spread four times wider between runs.
const HORIZON_CYCLES: u64 = 50_000_000;
/// Offered load as a multiple of the saturated service capacity.
const LOAD: f64 = 2.0;
/// The core that dies at half the horizon.
const DEAD_CORE: usize = 5;

/// The serving configuration and the size of its generated stream.
pub struct Inputs {
    config: ServingConfig,
    offered: usize,
}

/// The `serve-fault` workload.
pub struct ServeFault;

impl Workload for ServeFault {
    type Inputs = Inputs;
    type Part = ServingReport;

    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Inputs, Error> {
        let mut config = ServingConfig {
            cores: 16,
            max_batch: 4,
            strategy: ServingStrategy::Traditional,
            ..ServingConfig::default()
        };
        let capacity = spans.span("core.serve_calibrate", || service_capacity_rpmc(&config))?;
        config.arrivals = ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_rpmc: LOAD * capacity },
            horizon_cycles: HORIZON_CYCLES,
            seed,
        };
        config.faults =
            vec![StreamFault { at_cycle: HORIZON_CYCLES / 2, dead_cores: vec![DEAD_CORE] }];
        let offered = spans.span("inputs.arrivals", || config.arrivals.times())?.len();
        Ok(Inputs { config, offered })
    }

    fn segments(&self, _inputs: &Inputs) -> usize {
        1
    }

    fn segment(
        &self,
        inputs: &Inputs,
        _i: usize,
        spans: &mut Spans,
    ) -> Result<ServingReport, Error> {
        Ok(spans.span("core.serve", || run_serving(&inputs.config))?)
    }

    fn finish(&self, inputs: &Inputs, reports: Vec<ServingReport>) -> Rep {
        let mut fixed = Fixed::new();
        let mut failures = Vec::new();
        for r in &reports {
            let offered = r.offered.max(1) as f64;
            let counts = [
                ("sim_kcycles", r.makespan_cycles as f64 / 1e3),
                ("served_frac", r.served() as f64 / offered),
                ("p99_kcycles", r.latency.p99 as f64 / 1e3),
                ("core.serve_requests", r.offered as f64),
                ("core.serve_batches", r.batches.len() as f64),
                ("core.serve_recoveries", r.recoveries.len() as f64),
                ("core.serve_shed_rate", r.shed_rate),
            ];
            fixed.extend(counts);
            add_sim_usage(&mut fixed, &r.sim);
            failures.extend(checks::serving_recovered(r, inputs.offered).err());
        }
        Rep { units: inputs.offered as f64, fixed, failures }
    }
}
