//! Interruptible shutdown signalling.
//!
//! [`Shutdown`] replaces flag-polling sleeps (the old pattern slept in
//! 50 ms chunks and re-checked an `AtomicBool`, so shutdown latency was
//! a coin flip and the model checker cannot meaningfully explore a
//! wall-clock poll). Waiters park on a condvar; [`Shutdown::signal`]
//! flips the flag *under the mutex* before notifying, so a waiter that
//! has checked the flag but not yet parked cannot miss the wakeup — the
//! classic lost-wakeup shape `dagrider-check` exists to catch.
//!
//! Signalling is idempotent: any number of callers may signal in any
//! order, concurrently with waiters; `crates/check` model-checks the
//! double-shutdown path.

use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Condvar, Mutex, PoisonError};

/// A one-shot, idempotent shutdown latch with interruptible waits.
#[derive(Debug, Default)]
pub struct Shutdown {
    /// Lock-free fast path for hot-loop checks.
    flag: AtomicBool,
    /// The authoritative state, guarded so waiters cannot lose a wakeup.
    state: Mutex<bool>,
    signalled: Condvar,
}

impl Shutdown {
    /// Creates an unsignalled latch.
    pub const fn new() -> Self {
        Self { flag: AtomicBool::new(false), state: Mutex::new(false), signalled: Condvar::new() }
    }

    /// Signals shutdown. Safe to call any number of times from any
    /// thread; every current and future waiter wakes immediately.
    pub fn signal(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = true;
        self.flag.store(true, Ordering::Release);
        drop(state);
        self.signalled.notify_all();
    }

    /// Whether shutdown has been signalled (lock-free).
    pub fn is_signalled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Waits up to `timeout` for the signal. Returns `true` if shutdown
    /// was signalled (now or earlier), `false` on timeout — so callers
    /// write `if shutdown.wait_timeout(delay) { return }` instead of an
    /// uninterruptible sleep.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if *state {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, result) = self
                .signalled
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if result.timed_out() && !*state {
                return false;
            }
        }
    }
}

/// The reactor's readiness bell: a level-latched wakeup with the same
/// lost-wakeup-proof shape as [`Shutdown`].
///
/// Producers (the consensus loop after pushing frames, batchers after
/// sealing, the dialer after registering a link, the client frontend)
/// call [`Waker::wake`]; the reactor parks in [`Waker::wait_timeout`]
/// between sweeps. The pending flag is flipped *under the mutex* before
/// notifying, so a wake that races the reactor's park is latched, never
/// lost — a wake issued while the reactor is mid-sweep is consumed by
/// the next park instead of vanishing. A waiter counts itself parked
/// under the same mutex, and `wake` rings the condvar only when one is:
/// a notify is a futex syscall even with nobody waiting, and most wakes
/// land while the reactor is mid-sweep. `crates/check` explores the
/// wake/park handshake exhaustively (`reactor-wakeup`,
/// `reactor-shutdown` surfaces).
#[derive(Debug, Default)]
pub struct Waker {
    /// Guarded so a waiter cannot check-then-park across a producer's
    /// wake.
    state: Mutex<WakerState>,
    bell: Condvar,
}

#[derive(Debug, Default)]
struct WakerState {
    /// A wake was issued and not yet consumed.
    pending: bool,
    /// Threads parked on the bell.
    parked: usize,
}

impl Waker {
    /// Creates a waker with no pending wake.
    pub const fn new() -> Self {
        Self { state: Mutex::new(WakerState { pending: false, parked: 0 }), bell: Condvar::new() }
    }

    /// Latches a wake and rings the bell if a thread is parked.
    /// Coalescing: any number of wakes before the next wait collapse into
    /// one.
    pub fn wake(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.pending = true;
        let parked = state.parked > 0;
        drop(state);
        if parked {
            self.bell.notify_one();
        }
    }

    /// Parks until a wake arrives (consuming it). Returns immediately
    /// if a wake is already latched.
    pub fn wait(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !state.pending {
            state.parked += 1;
            state = self.bell.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
        state.pending = false;
    }

    /// Parks up to `timeout` for a wake. Returns `true` if a wake was
    /// consumed, `false` on timeout — either way the reactor sweeps
    /// again, so a timeout is pacing, not an error.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.pending {
                state.pending = false;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state.parked += 1;
            let (guard, result) = self
                .bell
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            state.parked -= 1;
            if result.timed_out() && !state.pending {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{thread, Arc};

    #[test]
    fn waker_latches_a_wake_issued_before_the_wait() {
        let waker = Waker::new();
        waker.wake();
        waker.wake(); // coalesces
        let start = Instant::now();
        assert!(waker.wait_timeout(Duration::from_secs(5)), "latched wake must be consumed");
        assert!(start.elapsed() < Duration::from_secs(1));
        // Consumed: the next wait times out.
        assert!(!waker.wait_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn waker_wakes_a_parked_thread() {
        let waker = Arc::new(Waker::new());
        let parked = Arc::clone(&waker);
        let start = Instant::now();
        let handle = thread::spawn(move || {
            parked.wait();
            true
        });
        thread::sleep(Duration::from_millis(20));
        waker.wake();
        assert!(handle.join().expect("waiter thread"));
        assert!(start.elapsed() < Duration::from_secs(5), "wake did not unpark the waiter");
    }

    #[test]
    fn signalled_latch_returns_immediately() {
        let latch = Shutdown::new();
        assert!(!latch.is_signalled());
        latch.signal();
        latch.signal(); // idempotent
        assert!(latch.is_signalled());
        let start = Instant::now();
        assert!(latch.wait_timeout(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1), "signalled wait must not block");
    }

    #[test]
    fn unsignalled_latch_times_out() {
        let latch = Shutdown::new();
        assert!(!latch.wait_timeout(Duration::from_millis(10)));
        assert!(!latch.is_signalled());
    }

    #[test]
    fn cross_thread_signal_interrupts_a_long_wait() {
        let latch = Arc::new(Shutdown::new());
        let waiter = Arc::clone(&latch);
        let start = Instant::now();
        let handle = thread::spawn(move || waiter.wait_timeout(Duration::from_secs(30)));
        thread::sleep(Duration::from_millis(20));
        latch.signal();
        assert!(handle.join().expect("waiter thread"), "wait must report the signal");
        assert!(start.elapsed() < Duration::from_secs(5), "signal did not interrupt the wait");
    }
}
