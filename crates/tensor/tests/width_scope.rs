//! A width scope follows a fork-join: a kernel that runs on one of
//! `hfl-parallel`'s helper threads runs at the width of the scope the
//! job's caller opened, not at the widest the CPU has. One test in a
//! file of its own, so no sibling test holds the worker set while this
//! one needs a helper.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use hfl_tensor::ops::{with_width, Width};

#[test]
fn a_chunk_on_a_helper_runs_at_the_callers_width() {
    // Both chunks are claimed before either is read, so one runs on a
    // helper; the rendezvous gives up after ten seconds instead of
    // hanging when no helper joins.
    let (arrived, all_here) = (Mutex::new(0), Condvar::new());
    let meet = || {
        let mut n = arrived.lock().unwrap();
        *n += 1;
        all_here.notify_all();
        let (_n, waited) = all_here
            .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
            .unwrap();
        assert!(!waited.timed_out(), "no helper joined the job");
    };
    let me = std::thread::current().id();
    let mut seen = [None; 2];
    hfl_parallel::with_threads(2, || {
        with_width(Width::Plain, || {
            hfl_parallel::par_chunks_mut(&mut seen, 1, 2, |_base, slot| {
                meet();
                slot[0] = Some((std::thread::current().id(), Width::current()));
            })
        })
    })
    .expect("the plain width runs anywhere");
    let seen = seen.map(|slot| slot.expect("every chunk ran"));
    assert!(seen.iter().any(|(t, _)| *t != me), "no helper took a chunk");
    assert_eq!(seen.map(|(_, width)| width), [Width::Plain; 2]);
}
