//! Output checks. Each returns the reason it failed; a repetition with
//! any failed check counts as a failed operation.

use lts_core::serve::ServingReport;
use std::collections::BTreeMap;

/// Outputs fixed by the seed, by name. Host-speed work must leave every
/// one of them bit-identical.
pub type Fixed = BTreeMap<&'static str, f64>;

/// Every fixed output of a repetition equals, bit for bit, the first
/// repetition's.
pub fn identical(first: &Fixed, rep: &Fixed) -> Result<(), String> {
    for (name, v) in rep {
        match first.get(name) {
            Some(f) if f.to_bits() == v.to_bits() => {}
            Some(f) => return Err(format!("{name} changed between repetitions: {f} then {v}")),
            None => return Err(format!("{name} missing from the first repetition")),
        }
    }
    if first.len() != rep.len() {
        return Err(format!("{} fixed outputs, then {}", first.len(), rep.len()));
    }
    Ok(())
}

/// Structure-level parallelism removes traffic: Parallel#3 (grouped)
/// spends fewer communication cycles than Parallel#1 (dense).
pub fn grouped_comm_below_dense(p1_comm: u64, p3_comm: u64) -> Result<(), String> {
    if p3_comm < p1_comm {
        Ok(())
    } else {
        Err(format!("Parallel#3 comm_cycles {p3_comm} not below Parallel#1's {p1_comm}"))
    }
}

/// A block-sparse plan moves fewer bytes than the dense plan.
pub fn sparse_below_dense(topology: &str, dense: u64, sparse: u64) -> Result<(), String> {
    if sparse < dense {
        Ok(())
    } else {
        Err(format!("{topology}: sparse traffic {sparse} B not below dense {dense} B"))
    }
}

/// Interposer crossings happen on the multi-chip module and only there.
pub fn inter_chip_only_on_mcm(mesh: u64, mcm: u64) -> Result<(), String> {
    match (mesh, mcm) {
        (0, m) if m > 0 => Ok(()),
        _ => Err(format!("inter-chip traversals: mesh {mesh} (want 0), MCM {mcm} (want > 0)")),
    }
}

/// A trained network beats chance.
pub fn above_chance(name: &str, accuracy: f32, classes: usize) -> Result<(), String> {
    let chance = 1.0 / classes as f32;
    if accuracy > chance {
        Ok(())
    } else {
        Err(format!("{name}: accuracy {accuracy} not above chance {chance}"))
    }
}

/// The faulted serving run accounts for every offered request, recovers
/// exactly once from its one fault and never halts.
pub fn serving_recovered(report: &ServingReport, offered: usize) -> Result<(), String> {
    if report.offered != offered {
        return Err(format!("report offered {} of {offered} generated requests", report.offered));
    }
    if report.outcomes.total() != offered as u64 {
        return Err(format!(
            "outcome histogram totals {}, offered {offered}",
            report.outcomes.total()
        ));
    }
    if report.recoveries.len() != 1 {
        return Err(format!("{} recoveries for one fault", report.recoveries.len()));
    }
    if let Some(at) = report.halted_at {
        return Err(format!("serving halted at cycle {at}"));
    }
    Ok(())
}
