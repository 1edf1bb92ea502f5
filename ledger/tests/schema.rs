//! `ledger.json` round-trips through `hfl_telemetry::Json`, and
//! `BENCHMARK.json` names exactly what the program reports.

use hfl_ledger::compare::{compare, Verdict};
use hfl_ledger::layers::PER_LAYER;
use hfl_ledger::report::{Ledger, Metric, WorkloadReport};
use hfl_ledger::spec::BenchSpec;
use hfl_ledger::stats::Summary;
use hfl_ledger::workloads::Workload;
use hfl_telemetry::Json;

fn benchmark_json() -> BenchSpec {
    BenchSpec::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root parses")
}

fn sample_ledger() -> Ledger {
    Ledger {
        // Above 2^53: must survive as an exact integer.
        seed: u64::MAX - 1,
        threads: 2,
        nproc: 2,
        scale: "full".into(),
        workloads: vec![WorkloadReport {
            name: "sync_paper".into(),
            ops_per_rep: 60,
            reps: 5,
            ops_attempted: 360,
            ops_failed: 0,
            correct: true,
            end_to_end: vec![
                (
                    "rounds_per_s".into(),
                    Metric::fastest("1/s", Summary::of(&[27.0, 28.5, 28.0]), |s| s.max),
                ),
                ("peak_heap_mb".into(), Metric::once("MB", 39.989425)),
            ],
            per_layer: vec![
                (
                    "core.messages_per_round".into(),
                    Metric::exact("count", 264.0),
                ),
                (
                    "trace.overhead_frac".into(),
                    Metric::once("fraction", -0.0125),
                ),
            ],
        }],
    }
}

#[test]
fn ledger_round_trips_through_json_text() {
    let ledger = sample_ledger();
    let text = ledger.to_json().to_string();
    let back = Ledger::from_json(&Json::parse(&text).expect("emitted JSON parses"))
        .expect("emitted ledger reads back");
    assert_eq!(back, ledger);
    assert_eq!(back.to_json().to_string(), text, "serialisation is stable");
}

#[test]
fn foreign_documents_are_refused_not_misread() {
    let mut json = sample_ledger().to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs[0].1 = Json::UInt(99);
    }
    assert!(Ledger::from_json(&json).unwrap_err().contains("schema 99"));
    assert!(Ledger::from_json(&Json::parse("{}").unwrap()).is_err());
    assert!(BenchSpec::parse("{\"workloads\": []}").is_err());
}

#[test]
fn benchmark_json_names_what_the_program_reports() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, workloads);
    let end_to_end: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        end_to_end,
        [
            "setup_s",
            "rounds_per_s",
            "updates_per_s",
            "peak_heap_mb",
            "final_accuracy"
        ]
    );
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let per_layer: Vec<(&str, &str)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(per_layer, PER_LAYER);
}

#[test]
fn compare_gates_exact_counters_and_failed_operations() {
    let spec = benchmark_json();
    let a = sample_ledger();
    assert!(compare(&spec, &a, &a)
        .iter()
        .all(|r| r.verdict == Verdict::Unchanged));

    let mut moved = a.clone();
    moved.workloads[0].per_layer[0].1 = Metric::exact("count", 265.0);
    moved.workloads[0].ops_failed = 3;
    let rows = compare(&spec, &a, &moved);
    let regressed: Vec<&str> = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .map(|r| r.metric.as_str())
        .collect();
    assert_eq!(regressed, ["core.messages_per_round", "ops_failed_share"]);
}
