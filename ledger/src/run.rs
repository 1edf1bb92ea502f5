//! One workload from set-up to report: the untraced reps, then (when
//! asked) the traced pass on the same set-up.

use crate::e2e::{run_end_to_end, Reps};
use crate::layers::run_traced;
use crate::report::WorkloadReport;
use crate::trace::Span;
use crate::workloads::{Scale, Workload};

/// Runs `workload` and returns its ledger section with the traced
/// rep's spans (empty without `trace`).
pub fn run_workload(
    workload: Workload,
    seed: u64,
    scale: Scale,
    setups: usize,
    reps: Reps,
    trace: bool,
) -> Result<(WorkloadReport, Vec<Span>), String> {
    let e2e = run_end_to_end(workload, seed, scale, setups, reps)?;
    let (per_layer, spans, equivalent) = if trace {
        let traced = run_traced(
            workload,
            seed,
            scale,
            &e2e.prepared,
            &e2e.reference,
            e2e.setup_s,
            e2e.rep_wall_s,
        );
        (traced.metrics, traced.spans, traced.equivalent)
    } else {
        (Vec::new(), Vec::new(), true)
    };
    let report = WorkloadReport {
        name: workload.name().to_string(),
        ops_per_rep: workload.ops_per_rep(scale) as u64,
        reps: e2e.reps as u64,
        ops_attempted: e2e.ops_attempted,
        ops_failed: e2e.ops_failed,
        correct: e2e.ops_failed == 0 && equivalent,
        end_to_end: e2e.metrics,
        per_layer,
    };
    Ok((report, spans))
}
