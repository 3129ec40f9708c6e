//! Synchronization shims: the only concurrency primitives `dagrider-net`
//! code is allowed to use (`cargo xtask lint` enforces this).
//!
//! Each type here wraps its `std` counterpart with one extra branch: if
//! the calling thread is running inside a [`model`] exploration (a
//! thread-local set by [`model::explore`]), the operation becomes a
//! *schedule point* routed through the deterministic scheduler — locks,
//! waits, channel ops and atomics all yield control so the explorer can
//! interleave threads exhaustively. Outside an exploration the branch is
//! a thread-local load that finds `None`, and everything compiles down
//! to the plain `std::sync` fast path.
//!
//! This is deliberately *not* a cargo feature: with resolver-2 feature
//! unification, a `model` feature enabled by the checker crate would
//! leak into every workspace build of the real TCP runtime. Runtime
//! dispatch keeps production binaries byte-for-byte honest while letting
//! `dagrider-check` drive the very same code.
//!
//! `Arc`/`Weak` are re-exported from `std` unchanged: a custom `Arc`
//! cannot coerce to `Arc<dyn Trait>` on stable (no `CoerceUnsized`), and
//! every cross-thread handoff of an `Arc` in this crate is already
//! bracketed by shimmed lock or channel operations, so the explorer
//! still observes the interesting interleavings.

pub mod model;

use std::fmt;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

pub use std::sync::{Arc, LockResult, PoisonError, Weak};

use model::{current, Execution, ResourceCell, ThreadId};

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A mutual-exclusion lock; `std::sync::Mutex` outside a model run, a
/// scheduler-visible lock inside one.
pub struct Mutex<T> {
    inner: StdMutex<T>,
    cell: ResourceCell,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self { inner: StdMutex::new(value), cell: ResourceCell::new() }
    }

    /// Acquires the mutex, blocking (or yielding to the model scheduler)
    /// until it is available.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        // A failed run degrades to pass-through: destructors running
        // during the abort unwind (frames returning buffers to their
        // pool, queues waking writers) must not re-enter the scheduler.
        if let Some((exec, tid)) = current().filter(|(exec, _)| !exec.failed()) {
            let rid = self.cell.id(&exec);
            exec.acquire_mutex(tid, rid, "Mutex::lock");
            // Model ownership gates the std lock, so it is uncontended
            // here; a parked owner cannot run concurrently with us.
            let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            return Ok(MutexGuard {
                mutex: self,
                inner: Some(guard),
                model: Some((exec, tid, rid)),
            });
        }
        match self.inner.lock() {
            Ok(guard) => Ok(MutexGuard { mutex: self, inner: Some(guard), model: None }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                mutex: self,
                inner: Some(poisoned.into_inner()),
                model: None,
            })),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`]; releases the lock (and tells the model
/// scheduler) on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: Option<(Arc<Execution>, ThreadId, usize)>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("mutex guard used after its lock was released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("mutex guard used after its lock was released")
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Drop the std guard before releasing model ownership so the
        // next model owner finds the std lock free. Never panics and
        // never yields: guards drop during unwinding too.
        self.inner.take();
        if let Some((exec, _tid, rid)) = self.model.take() {
            exec.release_mutex(rid);
        }
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// Whether a [`Condvar`] timed wait returned because time ran out.
///
/// (Our own type: `std::sync::WaitTimeoutResult` has no public
/// constructor, so the model path could not produce one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable; `std::sync::Condvar` outside a model run, a
/// scheduler-visible wait queue inside one.
#[derive(Default)]
pub struct Condvar {
    inner: StdCondvar,
    cell: ResourceCell,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self { inner: StdCondvar::new(), cell: ResourceCell::new() }
    }

    /// Atomically releases `guard` and waits for a notification, then
    /// re-acquires the lock.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if let Some((exec, tid, mutex_rid)) = guard.model.take() {
            let cv_rid = self.cell.id(&exec);
            guard.inner.take(); // hand the std lock back before parking
            exec.condvar_wait(tid, cv_rid, mutex_rid, false, "Condvar::wait");
            guard.inner = Some(guard.mutex.inner.lock().unwrap_or_else(PoisonError::into_inner));
            guard.model = Some((exec, tid, mutex_rid));
            return Ok(guard);
        }
        let std_guard = guard.inner.take().expect("condvar wait on released guard");
        let mutex = guard.mutex;
        std::mem::forget(guard); // plain pass-through: no model release to run
        let std_guard = self.inner.wait(std_guard).unwrap_or_else(PoisonError::into_inner);
        Ok(MutexGuard { mutex, inner: Some(std_guard), model: None })
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if let Some((exec, tid, mutex_rid)) = guard.model.take() {
            let cv_rid = self.cell.id(&exec);
            guard.inner.take();
            let timed_out =
                exec.condvar_wait(tid, cv_rid, mutex_rid, true, "Condvar::wait_timeout");
            guard.inner = Some(guard.mutex.inner.lock().unwrap_or_else(PoisonError::into_inner));
            guard.model = Some((exec, tid, mutex_rid));
            return Ok((guard, WaitTimeoutResult { timed_out }));
        }
        let std_guard = guard.inner.take().expect("condvar wait on released guard");
        let mutex = guard.mutex;
        std::mem::forget(guard);
        let (std_guard, result) =
            self.inner.wait_timeout(std_guard, timeout).unwrap_or_else(PoisonError::into_inner);
        Ok((
            MutexGuard { mutex, inner: Some(std_guard), model: None },
            WaitTimeoutResult { timed_out: result.timed_out() },
        ))
    }

    /// Wakes one waiter (the longest-waiting one, under the model).
    pub fn notify_one(&self) {
        if let Some((exec, tid)) = current() {
            let rid = self.cell.id(&exec);
            exec.notify(tid, rid, false, "Condvar::notify_one");
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some((exec, tid)) = current() {
            let rid = self.cell.id(&exec);
            exec.notify(tid, rid, true, "Condvar::notify_all");
            return;
        }
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar")
    }
}

// ---------------------------------------------------------------------
// mpsc
// ---------------------------------------------------------------------

/// Multi-producer single-consumer channels, shimmed like the rest of the
/// module. Re-exports `std`'s error types so call sites match on the
/// familiar enums.
pub mod mpsc {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc as std_mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    use super::model::{current, ResourceCell};
    use super::Arc;

    /// Channel identity shared by all its senders and the receiver, plus
    /// a live-sender count so the last sender drop can wake a blocked
    /// model receiver.
    #[derive(Debug)]
    struct Shared {
        cell: ResourceCell,
        senders: AtomicUsize,
    }

    /// Creates an unbounded channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std_mpsc::channel();
        let shared = Arc::new(Shared { cell: ResourceCell::new(), senders: AtomicUsize::new(1) });
        (Sender { inner: tx, shared: Arc::clone(&shared) }, Receiver { inner: rx, shared })
    }

    /// The sending half of a [`channel`].
    pub struct Sender<T> {
        inner: std_mpsc::Sender<T>,
        shared: Arc<Shared>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("Sender")
        }
    }

    impl<T> Sender<T> {
        /// Queues a value; fails only if the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if let Some((exec, tid)) = current() {
                let rid = self.shared.cell.id(&exec);
                exec.schedule_point(tid, "mpsc::send");
                self.inner.send(value)?;
                exec.wake_channel(rid);
                return Ok(());
            }
            self.inner.send(value)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::Relaxed);
            Self { inner: self.inner.clone(), shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::Relaxed) == 1 {
                // Last sender: a model receiver blocked in recv() must
                // observe the disconnect. The woken receiver cannot run
                // before this thread's next schedule point, by which
                // time the inner std sender has dropped too.
                if let Some((exec, _tid)) = current() {
                    let rid = self.shared.cell.id(&exec);
                    exec.wake_channel(rid);
                }
            }
        }
    }

    /// The receiving half of a [`channel`].
    pub struct Receiver<T> {
        inner: std_mpsc::Receiver<T>,
        shared: Arc<Shared>,
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("Receiver")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            if let Some((exec, tid)) = current() {
                let rid = self.shared.cell.id(&exec);
                exec.schedule_point(tid, "mpsc::recv");
                loop {
                    match self.inner.try_recv() {
                        Ok(value) => return Ok(value),
                        Err(TryRecvError::Disconnected) => return Err(RecvError),
                        Err(TryRecvError::Empty) => {
                            exec.block_channel(tid, rid, false, "mpsc::recv");
                        }
                    }
                }
            }
            self.inner.recv()
        }

        /// Like [`Receiver::recv`], but gives up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            if let Some((exec, tid)) = current() {
                let rid = self.shared.cell.id(&exec);
                exec.schedule_point(tid, "mpsc::recv_timeout");
                loop {
                    match self.inner.try_recv() {
                        Ok(value) => return Ok(value),
                        Err(TryRecvError::Disconnected) => {
                            return Err(RecvTimeoutError::Disconnected);
                        }
                        Err(TryRecvError::Empty) => {
                            if exec.block_channel(tid, rid, true, "mpsc::recv_timeout") {
                                return Err(RecvTimeoutError::Timeout);
                            }
                        }
                    }
                }
            }
            self.inner.recv_timeout(timeout)
        }

        /// Returns a queued value without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            if let Some((exec, tid)) = current() {
                exec.schedule_point(tid, "mpsc::try_recv");
            }
            self.inner.try_recv()
        }
    }
}

// ---------------------------------------------------------------------
// atomics
// ---------------------------------------------------------------------

/// Shimmed atomics: every access is a schedule point under the model, so
/// flag races (e.g. check-then-sleep on a shutdown flag) are explored.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::model::current;

    macro_rules! shim_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $value:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic with `value`.
                pub const fn new(value: $value) -> Self {
                    Self { inner: <$std>::new(value) }
                }

                /// Atomically loads the value.
                pub fn load(&self, order: Ordering) -> $value {
                    self.yield_point(concat!(stringify!($name), "::load"));
                    self.inner.load(order)
                }

                /// Atomically stores `value`.
                pub fn store(&self, value: $value, order: Ordering) {
                    self.yield_point(concat!(stringify!($name), "::store"));
                    self.inner.store(value, order);
                }

                /// Atomically swaps in `value`, returning the previous one.
                pub fn swap(&self, value: $value, order: Ordering) -> $value {
                    self.yield_point(concat!(stringify!($name), "::swap"));
                    self.inner.swap(value, order)
                }

                fn yield_point(&self, op: &str) {
                    if let Some((exec, tid)) = current() {
                        exec.schedule_point(tid, op);
                    }
                }
            }
        };
    }

    shim_atomic!(
        /// Shimmed `std::sync::atomic::AtomicBool`.
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );
    shim_atomic!(
        /// Shimmed `std::sync::atomic::AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    shim_atomic!(
        /// Shimmed `std::sync::atomic::AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );

    impl AtomicU64 {
        /// Atomically adds `value`, returning the previous value.
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            self.yield_point("AtomicU64::fetch_add");
            self.inner.fetch_add(value, order)
        }

        /// Atomically stores the maximum of the current and `value`,
        /// returning the previous value.
        pub fn fetch_max(&self, value: u64, order: Ordering) -> u64 {
            self.yield_point("AtomicU64::fetch_max");
            self.inner.fetch_max(value, order)
        }
    }
}

// ---------------------------------------------------------------------
// threads
// ---------------------------------------------------------------------

/// Thread spawning and sleeping, shimmed: model threads are registered
/// with the scheduler, and `sleep` becomes an instantaneous schedule
/// point (model time is abstract).
pub mod thread {
    use std::sync::{Mutex as StdMutex, PoisonError};
    use std::time::Duration;

    pub use std::thread::available_parallelism;

    use super::model::{current, Execution, ThreadId};
    use super::Arc;

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model { exec: Arc<Execution>, tid: ThreadId, slot: Arc<StdMutex<Option<T>>> },
    }

    /// Handle to a spawned thread; joinable exactly like
    /// `std::thread::JoinHandle`.
    pub struct JoinHandle<T> {
        inner: Inner<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result.
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner {
                Inner::Std(handle) => handle.join(),
                Inner::Model { exec, tid, slot } => {
                    let (_, me) =
                        current().expect("model join handles are only joinable from model threads");
                    exec.join_thread(me, tid);
                    let value = slot
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .expect("finished model thread left no result");
                    Ok(value)
                }
            }
        }
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("JoinHandle")
        }
    }

    /// Spawns a thread — an OS thread normally, a scheduler-controlled
    /// model thread inside an exploration.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if let Some((exec, tid)) = current() {
            let (child, slot) = exec.spawn_model(tid, f);
            return JoinHandle { inner: Inner::Model { exec, tid: child, slot } };
        }
        JoinHandle { inner: Inner::Std(std::thread::spawn(f)) }
    }

    /// Sleeps for `duration` — or, under the model, yields once (model
    /// time is abstract).
    pub fn sleep(duration: Duration) {
        if let Some((exec, tid)) = current() {
            exec.schedule_point(tid, "thread::sleep");
            return;
        }
        std::thread::sleep(duration);
    }

    /// Cooperatively yields — a schedule point under the model.
    pub fn yield_now() {
        if let Some((exec, tid)) = current() {
            exec.schedule_point(tid, "thread::yield_now");
            return;
        }
        std::thread::yield_now();
    }
}
