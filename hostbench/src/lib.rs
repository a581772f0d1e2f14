//! Host-speed-corrected end-to-end benchmark of the learn-to-scale
//! pipeline. See `README.md` for the workloads, metrics and steadiness
//! notes; `src/main.rs` is the command line.

pub mod checks;
pub mod host;
pub mod metrics;
pub mod runner;
pub mod trace;
pub mod workloads;
