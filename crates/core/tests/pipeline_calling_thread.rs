//! A run on the pipelined schedule stays on the thread that asked for
//! it: `RunOptions::pipeline` wakes no `hfl-parallel` helper, so the
//! run's wall time does not depend on a second core being free. One
//! test in a file of its own, so no other test's fork-join can create
//! the helpers this one counts.

#![cfg(target_os = "linux")]

use abd_hfl_core::config::{AttackCfg, HflConfig};
use abd_hfl_core::pipeline::PipelineConfig;
use abd_hfl_core::run::{run, RunOptions};

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_pipelined_run_creates_no_helper_thread() {
    hfl_parallel::set_default_threads(4);
    let mut cfg = HflConfig::quick(AttackCfg::None, 7);
    cfg.rounds = 2;
    let pcfg = PipelineConfig {
        rounds: 2,
        ..PipelineConfig::default()
    };

    let before = tasks();
    let (timing, manifest) = RunOptions::pipeline(&pcfg).run(&cfg).into_pipeline();
    assert_eq!(timing.rounds.len(), 2);
    assert_eq!(tasks(), before, "the pipelined run forked onto helpers");

    // The lockstep schedule of the same config does fork, and the
    // pipelined run's bytes are the ones the engine produces at any
    // thread count (`tests/kernel_equivalence.rs` sweeps it).
    run(&cfg);
    assert!(tasks() > before, "four threads asked for, none created");
    let again = RunOptions::pipeline(&pcfg).run(&cfg).into_pipeline().1;
    assert_eq!(again.to_json(), manifest.to_json());
}
