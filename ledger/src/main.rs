//! `hfl-ledger`: the repository's benchmark.
//!
//! ```text
//! hfl-ledger run [--trace] [--seed N] [--out DIR] [--smoke] [--workload NAME]...
//! hfl-ledger compare A.json B.json [BENCHMARK.json]
//! hfl-ledger bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` is the full ledger: every workload, every metric by name with
//! its unit, `ledger.json` (+ `trace.jsonl`) under `--out`. `bench` is
//! the one-workload form `BENCHMARK.json`'s command invokes; its last
//! stdout line is the result object.

use std::io::{BufWriter, Write};
use std::process::ExitCode;

use hfl_ledger::alloc::LedgerAlloc;
use hfl_ledger::compare::{compare, print as print_comparison, Verdict};
use hfl_ledger::e2e::Reps;
use hfl_ledger::report::{print_workload, Ledger, WorkloadReport};
use hfl_ledger::run::run_workload;
use hfl_ledger::spec::BenchSpec;
use hfl_ledger::trace::write_jsonl;
use hfl_ledger::workloads::{Scale, Workload, THREADS};
use hfl_telemetry::Json;

#[global_allocator]
static ALLOC: LedgerAlloc = LedgerAlloc;

/// Timed reps per workload in `run` (after the warm-up rep).
const RUN_REPS: usize = 5;
/// Set-up repetitions behind `setup_s`.
const SETUPS: usize = 3;

const USAGE: &str = "usage:
  hfl-ledger run [--trace] [--seed N] [--out DIR] [--smoke] [--workload NAME]...
  hfl-ledger compare A.json B.json [BENCHMARK.json]
  hfl-ledger bench --workload NAME --seed N --seconds S --trace 0|1";

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn values(&self, flag: &str) -> Vec<&str> {
        self.args
            .windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .collect()
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).into_iter().next_back()
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read '{v}'")))
            .transpose()
    }
}

fn workloads(flags: &Flags) -> Result<Vec<Workload>, String> {
    let named = flags.values("--workload");
    if named.is_empty() {
        return Ok(Workload::ALL.to_vec());
    }
    named
        .into_iter()
        .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload '{n}'")))
        .collect()
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn run(flags: &Flags) -> Result<bool, String> {
    let seed = flags.parsed("--seed")?.unwrap_or(42);
    let trace = flags.has("--trace");
    let scale = if flags.has("--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let reps = if scale == Scale::Smoke { 2 } else { RUN_REPS };
    println!(
        "hfl-ledger: seed {seed}, {} threads pinned (box reports {}), {} sizes, trace {}",
        THREADS,
        nproc(),
        scale.name(),
        if trace { "on" } else { "off" }
    );
    let mut ledger = Ledger {
        seed,
        threads: THREADS as u64,
        nproc: nproc(),
        scale: scale.name().to_string(),
        workloads: Vec::new(),
    };
    let mut spans = Vec::new();
    for workload in workloads(flags)? {
        let (report, mut s) =
            run_workload(workload, seed, scale, SETUPS, Reps::Count(reps), trace)?;
        print_workload(&report);
        ledger.workloads.push(report);
        spans.append(&mut s);
    }
    if let Some(dir) = flags.value("--out") {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/ledger.json");
        std::fs::write(&path, ledger.to_json().to_string() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
        if trace {
            let path = format!("{dir}/trace.jsonl");
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut out = BufWriter::new(file);
            write_jsonl(&spans, &mut out)
                .and_then(|()| out.flush())
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path} ({} spans)", spans.len());
        }
    }
    Ok(ledger.workloads.iter().all(|w| w.correct))
}

fn compare_cmd(flags: &Flags) -> Result<bool, String> {
    let (a, b, spec) = match &flags.args[..] {
        [a, b] => (a, b, "BENCHMARK.json"),
        [a, b, spec] => (a, b, spec.as_str()),
        _ => return Err(USAGE.to_string()),
    };
    let spec = BenchSpec::load(spec)?;
    let (a, b) = (Ledger::load(a)?, Ledger::load(b)?);
    if a.scale != b.scale || a.seed != b.seed {
        return Err(format!(
            "runs are not comparable: {} seed {} against {} seed {}",
            a.scale, a.seed, b.scale, b.seed
        ));
    }
    let rows = compare(&spec, &a, &b);
    print_comparison(&rows, &a, &b);
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} regression(s), {} unresolved, {} improved, {} unchanged",
        count(Verdict::Regression),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Unchanged)
    );
    Ok(count(Verdict::Regression) == 0)
}

/// The result object the driver reads from the last stdout line.
fn bench_result(report: &WorkloadReport, trace: bool) -> Json {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.correct)),
        ("attempted".into(), Json::UInt(report.ops_attempted)),
        ("failed".into(), Json::UInt(report.ops_failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, m)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::Str(m.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn bench(flags: &Flags) -> Result<bool, String> {
    let name = flags.value("--workload").ok_or(USAGE)?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = flags.parsed("--seed")?.ok_or(USAGE)?;
    let seconds: f64 = flags.parsed("--seconds")?.ok_or(USAGE)?;
    let trace = match flags.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(USAGE.to_string()),
    };
    // The traced pass needs only a short untraced reference; the
    // end-to-end numbers always come from a `--trace 0` run.
    let reps = if trace {
        Reps::Count(3)
    } else {
        Reps::Seconds(seconds)
    };
    let setups = if trace { 1 } else { SETUPS };
    let (report, _) = run_workload(workload, seed, Scale::Full, setups, reps, trace)?;
    print_workload(&report);
    println!("{}", bench_result(&report, trace));
    Ok(true)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let flags = Flags { args };
    let outcome = match command.as_str() {
        "run" => run(&flags),
        "compare" => compare_cmd(&flags),
        "bench" => bench(&flags),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hfl-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
