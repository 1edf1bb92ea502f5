//! Offline stand-in for `crossbeam`: `thread::scope` over
//! `std::thread::scope` (same spawn-per-call cost model — one OS thread
//! per worker per fork-join) and `channel::unbounded` as a
//! mutex-and-condvar MPMC queue.

pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// crossbeam's scope handle: `spawn` closures receive `&Scope` so
    /// they can spawn siblings.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Runs `f` with a scope whose threads are all joined before this
    /// returns. Like crossbeam, a panicking child surfaces as `Err`
    /// (std re-raises it at scope exit; it is caught here).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
    }

    pub struct Sender<T>(Arc<Chan<T>>);
    pub struct Receiver<T>(Arc<Chan<T>>);

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    impl<T> Sender<T> {
        /// Never fails here: a queue with no receiver left just holds the
        /// message (the repository's pool joins its receivers only after
        /// dropping the sender).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(value);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Take the lock so a receiver between its emptiness check
                // and its wait cannot miss the wake-up.
                let _queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next message; `Err` once the queue is empty and
        /// every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .0
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }
}
