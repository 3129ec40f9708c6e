//! Shutdown signalling and the reactor's readiness bell.
//!
//! [`Shutdown`] is a one-shot, idempotent latch: any number of callers
//! may signal it in any order, and every runtime thread polls it at the
//! top of its loop. No thread waits on it — each one already wakes on
//! its own channel, timer or [`Waker`], and `NetNode::shutdown` rings
//! those after signalling — so it is a single atomic flag.
//!
//! [`Waker`] is where the reactor parks between sweeps. A wake is
//! latched *under the mutex* before notifying, so a reactor that has
//! checked for work but not yet parked cannot miss it — the classic
//! lost-wakeup shape `dagrider-check` exists to catch. `crates/check`
//! model-checks both, including a concurrent double shutdown.

use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Condvar, Mutex, PoisonError};

/// A one-shot, idempotent shutdown latch.
#[derive(Debug, Default)]
pub struct Shutdown {
    flag: AtomicBool,
}

impl Shutdown {
    /// Creates an unsignalled latch.
    pub const fn new() -> Self {
        Self { flag: AtomicBool::new(false) }
    }

    /// Signals shutdown. Safe to call any number of times from any
    /// thread.
    pub fn signal(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether shutdown has been signalled.
    pub fn is_signalled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The reactor's readiness bell: a level-latched, lost-wakeup-proof
/// wakeup.
///
/// Producers (the consensus loop after pushing frames or appending to
/// the ordered log, `NetNode::submit_tx` after handing over a
/// transaction, the dialer after registering a link, `NetNode::shutdown`
/// after signalling) call [`Waker::wake`]; the reactor parks in
/// [`Waker::wait_timeout`] between sweeps. The pending flag is flipped
/// *under the mutex* before notifying, so a wake that races the
/// reactor's park is latched, never lost — a wake issued while the
/// reactor is mid-sweep is consumed by the next park instead of
/// vanishing. A waiter counts itself parked
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
    fn signalling_is_idempotent() {
        let latch = Shutdown::new();
        assert!(!latch.is_signalled());
        latch.signal();
        latch.signal(); // idempotent
        assert!(latch.is_signalled());
    }
}
