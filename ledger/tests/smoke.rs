//! Every workload at smoke size (≤ 5 rounds / 4 scenarios, 2 reps),
//! traced, on two seeds: every metric `BENCHMARK.json` names is there,
//! finite and carries its unit; no operation fails; the traced rep ends
//! on the same model as the untraced one.

use hfl_ledger::alloc::LedgerAlloc;
use hfl_ledger::e2e::Reps;
use hfl_ledger::run::run_workload;
use hfl_ledger::spec::{BenchSpec, MetricSpec};
use hfl_ledger::trace::self_times_ns;
use hfl_ledger::workloads::{Scale, Workload};

// Without it the heap metrics would read 0.
#[global_allocator]
static ALLOC: LedgerAlloc = LedgerAlloc;

fn assert_reported(
    workload: &str,
    declared: &[MetricSpec],
    reported: &[(String, hfl_ledger::report::Metric)],
) {
    for spec in declared {
        let (_, metric) = reported
            .iter()
            .find(|(name, _)| *name == spec.name)
            .unwrap_or_else(|| panic!("{workload}: '{}' is not reported", spec.name));
        assert!(
            metric.value.is_finite()
                && metric.summary.median.is_finite()
                && metric.summary.min.is_finite()
                && metric.summary.max.is_finite(),
            "{workload}: '{}' is not finite",
            spec.name
        );
        assert_eq!(
            metric.unit, spec.unit,
            "{workload}: unit of '{}'",
            spec.name
        );
        assert!(metric.summary.n >= 1);
    }
    assert_eq!(
        reported.len(),
        declared.len(),
        "{workload}: undeclared metrics"
    );
}

// One test, not one per seed: the runs share the process-wide thread
// pin and allocator counters.
#[test]
fn smoke_run_reports_every_declared_metric_on_two_seeds() {
    let spec = BenchSpec::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root parses");
    // 7 is there so that no workload is tuned to the default seed.
    for seed in [42, 7] {
        for workload in Workload::ALL {
            let name = workload.name();
            let (report, spans) =
                run_workload(workload, seed, Scale::Smoke, 1, Reps::Count(2), true)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(report.ops_failed, 0, "{name} seed {seed}");
            // Warm-up rep + two timed reps.
            assert_eq!(report.ops_attempted, 3 * report.ops_per_rep, "{name}");
            assert!(
                report.correct,
                "{name} seed {seed}: the traced rep must end where an untraced rep ends"
            );
            assert_reported(name, &spec.end_to_end, &report.end_to_end);
            assert_reported(name, &spec.per_layer, &report.per_layer);
            for (metric, m) in &report.end_to_end {
                assert!(m.value > 0.0, "{name}: '{metric}' must never be 0");
            }

            assert!(
                !spans.is_empty(),
                "{name}: the traced pass recorded nothing"
            );
            assert!(spans
                .iter()
                .all(|s| s.workload == name && s.end_ns >= s.start_ns));
            assert!(
                spans.iter().all(|s| s.parent.is_none_or(|p| p < s.id)),
                "{name}: a span's parent is opened before it"
            );
            let self_times = self_times_ns(&spans);
            assert!(self_times
                .iter()
                .zip(&spans)
                .all(|(own, s)| *own <= s.duration_ns()));
        }
    }
}
