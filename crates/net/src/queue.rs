//! Bounded per-peer outbound queues.
//!
//! Each outbound link gets one [`SendQueue`], which the reactor drains
//! into the link's socket. The queue is the backpressure boundary between
//! the consensus thread (which must never block on a slow peer — the
//! protocol is asynchronous precisely so one laggard cannot stall the
//! rest) and the TCP connection. When a peer falls more than `capacity`
//! frames behind, the *oldest* frames are dropped: reliable broadcast
//! tolerates message loss by design, and a rejoining peer recovers
//! anything it missed through the sync protocol.
//!
//! Queues hold [`Frame`] handles, so a broadcast enqueued at `n - 1`
//! peers shares one encoded buffer — pushing is a refcount bump, never a
//! byte copy.

use std::collections::VecDeque;
use std::time::Duration;

use crate::frame::Frame;
use crate::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Result of [`SendQueue::pop_timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pop {
    /// A frame to write.
    Frame(Frame),
    /// No frame arrived within the timeout; the queue is still open.
    TimedOut,
    /// The queue is closed and drained; the writer should exit.
    Closed,
}

#[derive(Debug)]
struct Inner {
    frames: VecDeque<Frame>,
    closed: bool,
    dropped: u64,
    /// Threads parked in [`SendQueue::pop_timeout`]. Pushes ring the
    /// condvar only when one is: a notify is a futex syscall even with
    /// nobody waiting, and the reactor drains with `try_pop` and never
    /// parks here.
    parked: usize,
}

/// A bounded MPSC frame queue with drop-oldest overflow.
#[derive(Debug)]
pub struct SendQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl SendQueue {
    /// Creates a queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            inner: Mutex::new(Inner {
                frames: VecDeque::new(),
                closed: false,
                dropped: 0,
                parked: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned queue mutex means a writer thread panicked while
        // holding it; the frames themselves are still consistent.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a frame, dropping the oldest queued frame if full.
    /// Returns `false` if the queue is closed (frame discarded).
    pub fn push(&self, frame: Frame) -> bool {
        let mut inner = self.lock();
        if inner.closed {
            return false;
        }
        if inner.frames.len() >= self.capacity {
            inner.frames.pop_front();
            inner.dropped += 1;
        }
        inner.frames.push_back(frame);
        let parked = inner.parked > 0;
        drop(inner);
        if parked {
            self.ready.notify_one();
        }
        true
    }

    /// Puts a frame back at the *front* of the queue — used by a writer
    /// whose connection died mid-send, so the frame is retried first
    /// after reconnecting. Ignored if the queue is closed.
    pub fn requeue_front(&self, frame: Frame) {
        let mut inner = self.lock();
        if !inner.closed {
            if inner.frames.len() >= self.capacity {
                inner.frames.pop_back();
                inner.dropped += 1;
            }
            inner.frames.push_front(frame);
            let parked = inner.parked > 0;
            drop(inner);
            if parked {
                self.ready.notify_one();
            }
        }
    }

    /// Waits up to `timeout` for a frame.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop {
        let mut inner = self.lock();
        loop {
            if let Some(frame) = inner.frames.pop_front() {
                return Pop::Frame(frame);
            }
            if inner.closed {
                return Pop::Closed;
            }
            inner.parked += 1;
            let (guard, result) =
                self.ready.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            inner.parked -= 1;
            if result.timed_out() && inner.frames.is_empty() && !inner.closed {
                return Pop::TimedOut;
            }
        }
    }

    /// Pops a frame without blocking: [`Pop::TimedOut`] when the queue
    /// is open but empty. The reactor drains queues with this and parks
    /// on its waker instead of inside the queue, so one idle link never
    /// stalls the sweep over every other socket.
    pub fn try_pop(&self) -> Pop {
        let mut inner = self.lock();
        match inner.frames.pop_front() {
            Some(frame) => Pop::Frame(frame),
            None if inner.closed => Pop::Closed,
            None => Pop::TimedOut,
        }
    }

    /// Closes the queue: `push` starts failing and writers drain what is
    /// left, then see [`Pop::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Frames dropped to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Frames currently waiting.
    pub fn len(&self) -> usize {
        self.lock().frames.len()
    }

    /// Whether no frames are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    fn frame(payload: &[u8]) -> Frame {
        Frame::from_payload(payload)
    }

    #[test]
    fn fifo_within_capacity() {
        let q = SendQueue::new(4);
        assert!(q.push(frame(b"a")));
        assert!(q.push(frame(b"b")));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Frame(frame(b"a")));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Frame(frame(b"b")));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::TimedOut);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest() {
        let q = SendQueue::new(2);
        q.push(frame(b"a"));
        q.push(frame(b"b"));
        q.push(frame(b"c"));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Frame(frame(b"b")));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Frame(frame(b"c")));
    }

    #[test]
    fn overflow_accounting_is_exact_under_sustained_pressure() {
        // Push far past capacity and check the counter equals exactly the
        // number of evictions, and the survivors are exactly the newest
        // `capacity` frames in order.
        let capacity = 8;
        let pushes = 100u64;
        let q = SendQueue::new(capacity);
        for i in 0..pushes {
            assert!(q.push(frame(&i.to_le_bytes())));
            assert!(q.len() <= capacity, "queue exceeded its capacity");
        }
        assert_eq!(q.dropped(), pushes - capacity as u64);
        for i in (pushes - capacity as u64)..pushes {
            assert_eq!(
                q.pop_timeout(Duration::from_millis(1)),
                Pop::Frame(frame(&i.to_le_bytes()))
            );
        }
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::TimedOut);
        // Draining does not disturb the drop counter.
        assert_eq!(q.dropped(), pushes - capacity as u64);
        // requeue_front evictions are counted through the same counter.
        for i in 0..=capacity as u64 {
            q.requeue_front(frame(&i.to_le_bytes()));
        }
        assert_eq!(q.dropped(), pushes - capacity as u64 + 1);
        assert_eq!(q.len(), capacity);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = SendQueue::new(4);
        assert_eq!(q.try_pop(), Pop::TimedOut);
        q.push(frame(b"a"));
        assert_eq!(q.try_pop(), Pop::Frame(frame(b"a")));
        assert_eq!(q.try_pop(), Pop::TimedOut);
        q.push(frame(b"b"));
        q.close();
        assert_eq!(q.try_pop(), Pop::Frame(frame(b"b")), "close still drains");
        assert_eq!(q.try_pop(), Pop::Closed);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = SendQueue::new(4);
        q.push(frame(b"a"));
        q.close();
        assert!(!q.push(frame(b"late")));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Frame(frame(b"a")));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    }

    #[test]
    fn requeue_front_is_retried_first() {
        let q = SendQueue::new(4);
        q.push(frame(b"next"));
        q.requeue_front(frame(b"failed"));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Frame(frame(b"failed")));
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = Arc::new(SendQueue::new(4));
        let q2 = Arc::clone(&q);
        let start = Instant::now();
        let handle = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        q.push(frame(b"x"));
        assert_eq!(handle.join().unwrap(), Pop::Frame(frame(b"x")));
        assert!(start.elapsed() < Duration::from_secs(4), "pop did not wake on push");
    }
}
