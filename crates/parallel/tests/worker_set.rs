//! Lifecycle and re-entrancy of the parked worker set under
//! `hfl-parallel`: helpers survive a propagated panic, a busy set means
//! "run it yourself" (nested calls, calls from many OS threads), an
//! out-of-range `threads` argument is clamped, and the caller never
//! returns while a helper is still inside its job — the condition the
//! crate's one `unsafe` rests on.
//!
//! The tests that need a helper to take part rendezvous *inside* the
//! job, which only works while nobody else holds the set; every test
//! here therefore serializes on [`ALONE`] (other test files are other
//! processes, with worker sets of their own).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

use hfl_parallel::{
    default_threads, par_chunks_mut, par_map_indexed, par_reduce, width_cap, with_threads,
    with_width_cap,
};

static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock but leaves nothing half-done.
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A meeting point for `parties` threads inside one job. Unlike
/// `std::sync::Barrier` it gives up after ten seconds, so a job no
/// helper joins fails the test instead of hanging it.
struct Meet {
    arrived: Mutex<usize>,
    all_here: Condvar,
    parties: usize,
}

impl Meet {
    fn new(parties: usize) -> Self {
        Meet {
            arrived: Mutex::new(0),
            all_here: Condvar::new(),
            parties,
        }
    }

    fn wait(&self) {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_here.notify_all();
        let (_arrived, timeout) = self
            .all_here
            .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < self.parties)
            .unwrap();
        assert!(!timeout.timed_out(), "no helper joined the job");
    }
}

/// Runs a two-chunk job at two threads whose chunks meet each other,
/// and returns which thread ran each chunk and what `read` returned
/// there.
fn two_threads_meet<T: Send>(read: impl Fn() -> T + Sync) -> [Option<(ThreadId, T)>; 2] {
    let meet = Meet::new(2);
    let mut ran_on = [None, None];
    par_chunks_mut(&mut ran_on, 1, 2, |_base, slot| {
        meet.wait();
        slot[0] = Some((std::thread::current().id(), read()));
    });
    ran_on
}

#[test]
fn helpers_survive_a_propagated_panic() {
    let _alone = alone();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let meet = Meet::new(2);
    let me = std::thread::current().id();
    let mut data = [0u8; 2];
    // Both chunks are claimed before either proceeds; the helper's then
    // panics, so the payload crosses threads.
    let err = catch_unwind(AssertUnwindSafe(|| {
        par_chunks_mut(&mut data, 1, 2, |_base, _chunk| {
            meet.wait();
            if std::thread::current().id() != me {
                panic!("helper's chunk is cursed");
            }
        });
    }))
    .expect_err("the helper's panic must fail the call");
    std::panic::set_hook(hook);
    assert_eq!(
        err.downcast_ref::<&str>().copied(),
        Some("helper's chunk is cursed")
    );

    // The helper that caught it is parked again, not dead, and the set
    // is not wedged: the same job shape still gets its second thread.
    let ran_on = two_threads_meet(|| ()).map(|slot| slot.map(|(t, ())| t));
    assert!(ran_on.contains(&Some(me)));
    assert!(ran_on.iter().any(|t| t.is_some() && *t != Some(me)));

    let mut squares = vec![0usize; 1000];
    par_chunks_mut(&mut squares, 7, 2, |base, chunk| {
        for (off, x) in chunk.iter_mut().enumerate() {
            *x = (base + off) * (base + off);
        }
    });
    assert!(squares.iter().enumerate().all(|(i, x)| *x == i * i));
}

#[test]
fn nested_calls_run_inline_and_match_the_sequential_result() {
    let _alone = alone();
    let cell = |i: usize, j: usize| (i * 31 + j * 17) % 101;
    let expected: Vec<usize> = (0..24).map(|i| (0..40).map(|j| cell(i, j)).sum()).collect();
    for threads in [2, 4, 8] {
        let got = par_map_indexed(24, threads, |i| {
            par_reduce(40, threads, || 0, |j| cell(i, j), |a, b| a + b)
        });
        assert_eq!(got, expected, "mismatch at {threads} threads");
    }
    let mut grid = vec![0usize; 24 * 40];
    par_chunks_mut(&mut grid, 40, 4, |base, row| {
        par_chunks_mut(row, 3, 4, |off, cells| {
            for (k, x) in cells.iter_mut().enumerate() {
                *x = cell(base / 40, off + k);
            }
        });
    });
    for (i, row) in grid.chunks(40).enumerate() {
        assert_eq!(row.iter().sum::<usize>(), expected[i], "row {i}");
    }
}

#[test]
fn many_os_threads_issuing_tiny_jobs_all_complete_exactly() {
    let _alone = alone();
    std::thread::scope(|s| {
        for t in 0..8usize {
            s.spawn(move || {
                let threads = 2 + t % 7;
                for job in 0..2_000usize {
                    let n = 1 + (job + t) % 9;
                    let got = par_map_indexed(n, threads, |i| i * 3 + job + t);
                    let want: Vec<usize> = (0..n).map(|i| i * 3 + job + t).collect();
                    assert_eq!(got, want, "OS thread {t}, job {job}");
                }
            });
        }
    });
}

#[test]
fn any_thread_count_gives_the_sequential_bytes() {
    let _alone = alone();
    let value = |i: usize| (i as f32 * 0.37).sin().to_bits();
    let expected: Vec<u32> = (0..257).map(value).collect();
    for threads in [0, 1, 2, 8, 64, usize::MAX] {
        assert_eq!(
            par_map_indexed(257, threads, value),
            expected,
            "par_map_indexed at {threads} threads"
        );
        let mut out = vec![0u32; 257];
        par_chunks_mut(&mut out, 5, threads, |base, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = value(base + off);
            }
        });
        assert_eq!(out, expected, "par_chunks_mut at {threads} threads");
        let sum = par_reduce(257, threads, || 0u64, |i| value(i) as u64, |a, b| a + b);
        assert_eq!(sum, expected.iter().map(|x| *x as u64).sum::<u64>());
    }
}

/// The SAFETY pin. The job's closure borrows a stack local; the helper
/// is still asleep inside its block when the caller runs out of work.
/// `par_chunks_mut` must not return before the helper is out, because
/// the local (and the closure) die right after.
#[test]
fn caller_outlives_every_helper() {
    let _alone = alone();
    let me = std::thread::current().id();
    let inside = AtomicBool::new(false);
    let meet = Meet::new(2);
    let mut seen = [0u64; 2];
    {
        let local = vec![0xABCD_u64; 64];
        par_chunks_mut(&mut seen, 1, 2, |_base, slot| {
            meet.wait();
            if std::thread::current().id() != me {
                inside.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                slot[0] = local.iter().sum();
                inside.store(false, Ordering::SeqCst);
            } else {
                slot[0] = local.iter().sum();
            }
        });
        assert!(
            !inside.load(Ordering::SeqCst),
            "par_chunks_mut returned while a helper was inside the job"
        );
    }
    assert_eq!(seen, [0xABCD * 64; 2]);
}

/// A scope travels with the job: the helper that takes a chunk of a
/// two-thread job made under `with_threads(3, ..)` and a width cap reads
/// the caller's count and cap, and the next unscoped job reads the
/// unscoped ones on both threads — a parked helper keeps no scope.
#[test]
fn a_helper_runs_its_share_under_the_callers_scope() {
    let _alone = alone();
    let me = std::thread::current().id();
    let read = || (default_threads(), width_cap());
    let unscoped = read();
    let scoped = with_threads(3, || with_width_cap(7, || two_threads_meet(read)));
    let after = two_threads_meet(read);
    for (ran_on, want) in [(scoped, (3, 7)), (after, unscoped)] {
        assert!(
            ran_on.iter().flatten().any(|(t, _)| *t != me),
            "no helper took a chunk"
        );
        assert_eq!(
            ran_on.map(|slot| slot.map(|(_, seen)| seen)),
            [Some(want); 2]
        );
    }
}
