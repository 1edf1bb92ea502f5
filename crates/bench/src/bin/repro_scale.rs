//! Population-scale proof for the cross-device refactor (DESIGN.md
//! §14): sweeps the client population n ∈ {10³, 10⁴, 10⁵, 10⁶} at a
//! fixed 64-slot cohort and demands the **per-round** allocation peak
//! stay flat (within 10% of the n = 10³ point) — the lazy
//! `ClientPopulation` means per-round cost depends on the sampled
//! cohort size m, never on n.
//!
//! ```sh
//! # Full sweep up to one million clients (seconds, not hours):
//! cargo run --release -p hfl-bench --bin repro_scale
//!
//! # CI: one 10⁴ point plus a manifest log for the same-seed diff gate:
//! cargo run --release -p hfl-bench --bin repro_scale -- --smoke --out DIR
//! ```
//!
//! Both modes emit `scale.json` (`schema: 3, kind: "scale"`) with
//! `rounds_per_sec`, `updates_per_sec`, `peak_round_bytes` and
//! `prepared_bytes` per population; smoke mode additionally writes
//! `scale.manifests.jsonl`, which `scripts/ci.sh` diffs across two
//! same-seed runs. The aggregation stack runs the streaming kernels
//! (trimmed mean at the cluster level, median at the top) so the sweep
//! also exercises the one-pass robust path end to end.

use std::path::Path;

use abd_hfl_core::config::{AttackCfg, HflConfig, LevelAgg, SamplingCfg, TopologyCfg};
use abd_hfl_core::runner::{run_prepared_with, Experiment};
use hfl_bench::memprobe::{self, CountingAlloc};
use hfl_bench::report::write_manifests_or_exit;
use hfl_bench::Args;
use hfl_ml::synth::SynthConfig;
use hfl_robust::AggregatorKind;
use hfl_telemetry::{Json, Telemetry};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Cohort slots per round: 8 clusters of 8 in a two-level ECSM.
const COHORT: usize = 64;

/// The populations the full sweep walks; the first is the flatness
/// baseline, the last is the acceptance target.
const POPULATIONS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// One measured sweep point.
struct Point {
    population: usize,
    rounds_per_sec: f64,
    updates_per_sec: f64,
    peak_round_bytes: u64,
    prepared_bytes: u64,
}

/// The cross-device cell: a 64-slot cohort uniformly sampled from
/// `population` each round, streaming kernels at both levels.
fn scale_config(population: usize, seed: u64, rounds: usize) -> HflConfig {
    let mut cfg = HflConfig::quick(AttackCfg::None, seed);
    cfg.topology = TopologyCfg::Ecsm {
        total_levels: 2,
        m: 8,
        n_top: 8,
    };
    cfg.levels = vec![
        // 8 member updates per cluster, threshold 4: the streaming
        // (non-exact) path is the one actually measured.
        LevelAgg::Bra(AggregatorKind::StreamingTrimmedMean {
            ratio: 0.2,
            exact_threshold: 4,
        }),
        LevelAgg::Bra(AggregatorKind::StreamingMedian { exact_threshold: 4 }),
    ];
    cfg.flag_level = 1;
    cfg.rounds = rounds;
    cfg.eval_every = rounds;
    cfg.data = SynthConfig {
        train_samples: 6_400,
        test_samples: 500,
        ..SynthConfig::default()
    };
    cfg.sampling = Some(SamplingCfg::uniform(population, COHORT));
    cfg
}

/// Prepares one population and measures its round loop: throughput plus
/// the per-round transient allocation peak from `memprobe`.
fn measure(population: usize, seed: u64, rounds: usize) -> Point {
    let cfg = scale_config(population, seed, rounds);
    let live_before = memprobe::live_bytes();
    let exp = Experiment::try_prepare(&cfg)
        .unwrap_or_else(|e| panic!("population {population} must prepare: {e}"));
    let prepared_bytes = memprobe::live_bytes().saturating_sub(live_before);
    let probe = memprobe::probe_rounds(&exp, rounds);
    assert!(
        probe.messages > 0,
        "population {population} moved no messages"
    );
    let rounds_per_sec = rounds as f64 / probe.elapsed_secs.max(1e-9);
    Point {
        population,
        rounds_per_sec,
        updates_per_sec: rounds_per_sec * exp.hierarchy.num_clients() as f64,
        peak_round_bytes: probe.peak_round_bytes,
        prepared_bytes,
    }
}

fn bench_doc(seed: u64, rounds: usize, points: &[Point]) -> Json {
    let sweep = points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("population".into(), Json::UInt(p.population as u64)),
                ("rounds_per_sec".into(), Json::Num(p.rounds_per_sec)),
                ("updates_per_sec".into(), Json::Num(p.updates_per_sec)),
                ("peak_round_bytes".into(), Json::UInt(p.peak_round_bytes)),
                ("prepared_bytes".into(), Json::UInt(p.prepared_bytes)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::UInt(3)),
        ("kind".into(), Json::Str("scale".into())),
        ("seed".into(), Json::UInt(seed)),
        ("rounds".into(), Json::UInt(rounds as u64)),
        ("cohort".into(), Json::UInt(COHORT as u64)),
        ("sweep".into(), Json::Arr(sweep)),
    ])
}

fn write_bench(out_dir: &str, doc: &Json) {
    let dir = Path::new(out_dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join("scale.json");
    std::fs::write(&path, doc.to_string() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args = Args::parse();
    let rounds = args.effective_rounds(8, 4);

    if args.smoke {
        // CI mode: one mid-size population, instrumented end to end so
        // the manifest log exists for the same-seed determinism diff.
        let population = 10_000;
        eprintln!("scale smoke: n = {population}, cohort {COHORT}, {rounds} rounds");
        let point = measure(population, args.seed, rounds);
        let cfg = scale_config(population, args.seed, rounds);
        let exp = Experiment::try_prepare(&cfg).expect("smoke population must prepare");
        let (telem, _rec) = Telemetry::recording();
        let mut run = run_prepared_with(&exp, &telem);
        run.manifest.label = format!("scale/n{population}");
        assert!(
            run.manifest.totals.messages > 0,
            "smoke run moved no messages"
        );
        write_manifests_or_exit(&args.out_dir, "scale", &[run.manifest]);
        assert!(point.peak_round_bytes > 0, "allocation probe saw nothing");
        write_bench(&args.out_dir, &bench_doc(args.seed, rounds, &[point]));
        return;
    }

    eprintln!("scale sweep: n ∈ {POPULATIONS:?}, cohort {COHORT}, {rounds} rounds per point");
    let mut points = Vec::new();
    for population in POPULATIONS {
        let p = measure(population, args.seed, rounds);
        println!(
            "n = {:>9}: {:7.1} rounds/s, {:9.0} updates/s, peak {:>9} B/round, prepared {:>9} B",
            p.population, p.rounds_per_sec, p.updates_per_sec, p.peak_round_bytes, p.prepared_bytes
        );
        points.push(p);
    }

    // The acceptance gate: per-round transient memory must not grow
    // with the population. (Prepared bytes DO grow — the identity-bound
    // malicious mask is one byte per client — which is why the gate is
    // on the round peak, not the resident set.)
    let base = points[0].peak_round_bytes;
    assert!(base > 0, "allocation probe saw nothing at n = 10^3");
    for p in &points[1..] {
        assert!(
            p.peak_round_bytes <= base + base / 10,
            "per-round peak grew with the population: n = {} peaked at {} B \
             vs {} B at n = {} (+10% allowed)",
            p.population,
            p.peak_round_bytes,
            base,
            points[0].population
        );
    }
    println!(
        "per-round peak flat across a {}x population sweep: {} B at n = 10^3 \
         vs {} B at n = 10^6",
        POPULATIONS[POPULATIONS.len() - 1] / POPULATIONS[0],
        base,
        points.last().unwrap().peak_round_bytes
    );
    write_bench(&args.out_dir, &bench_doc(args.seed, rounds, &points));
}
