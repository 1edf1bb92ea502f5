//! A run on the pipelined schedule forks onto the `hfl-parallel` worker
//! set as a lockstep run does: `RunOptions::pipeline` pins no thread
//! count, and what it returns at four threads is what the same call
//! returns on one. One test in a file of its own, so no other test's
//! fork-join can create the helpers this one counts.

#![cfg(target_os = "linux")]

use abd_hfl_core::config::{AttackCfg, HflConfig};
use abd_hfl_core::pipeline::PipelineConfig;
use abd_hfl_core::run::RunOptions;

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_pipelined_run_forks_onto_the_worker_set() {
    hfl_parallel::set_default_threads(4);
    let mut cfg = HflConfig::quick(AttackCfg::None, 7);
    cfg.rounds = 2;
    let pcfg = PipelineConfig {
        rounds: 2,
        ..PipelineConfig::default()
    };
    let run = || {
        RunOptions::pipeline(&pcfg)
            .try_run(&cfg)
            .expect("a valid config")
            .into_pipeline()
    };

    let before = tasks();
    let (one_timing, one_manifest) = hfl_parallel::with_threads(1, run);
    assert_eq!(tasks(), before, "a one-thread run forked onto helpers");

    let (timing, manifest) = run();
    assert!(tasks() > before, "four threads asked for, none woken");
    assert_eq!(timing.rounds.len(), 2);
    assert_eq!(manifest.to_json(), one_manifest.to_json());
    // `Debug` prints each f64 in its shortest round-trip form: equal
    // strings are equal bits.
    assert_eq!(format!("{timing:?}"), format!("{one_timing:?}"));
}
