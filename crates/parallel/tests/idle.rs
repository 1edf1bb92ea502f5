//! Idle means idle: between jobs the worker set's helpers are parked,
//! not spinning or polling. One test in a file of its own, so the
//! process has no other thread that could be charged CPU time.

#![cfg(target_os = "linux")]

use std::time::Duration;

/// How many tasks this process has besides the calling one, and their
/// summed `utime + stime` in clock ticks (fields 14 and 15 of
/// `/proc/self/task/<tid>/stat`; the command name in field 2 may hold
/// spaces, so fields are counted from its closing parenthesis).
fn other_tasks() -> (usize, u64) {
    let me = std::fs::read_link("/proc/thread-self").expect("procfs");
    let (mut tasks, mut ticks) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let task = task.expect("procfs").path();
        if task.file_name() == me.file_name() {
            continue;
        }
        tasks += 1;
        let stat = std::fs::read_to_string(task.join("stat")).expect("task stat");
        let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
        let mut fields = after_comm.split_whitespace().skip(11);
        for _ in 0..2 {
            let field = fields.next().expect("utime and stime");
            ticks += field.parse::<u64>().expect("a tick count");
        }
    }
    (tasks, ticks)
}

#[test]
fn parked_helpers_burn_no_cpu() {
    let mut data = vec![0u64; 4096];
    hfl_parallel::par_chunks_mut(&mut data, 16, 4, |base, chunk| {
        for (off, x) in chunk.iter_mut().enumerate() {
            *x = (base + off) as u64;
        }
    });
    assert!(data.iter().enumerate().all(|(i, x)| *x == i as u64));

    // Let a helper that was woken late find the job gone and park.
    std::thread::sleep(Duration::from_millis(50));
    let (tasks, before) = other_tasks();
    assert!(tasks >= 3, "a job at 4 threads leaves three helpers behind");
    std::thread::sleep(Duration::from_millis(200));
    let (_, after) = other_tasks();
    assert!(
        after - before <= 1,
        "helpers used {} clock ticks while idle for 200 ms",
        after - before
    );
}
