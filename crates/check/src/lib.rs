//! Model checks for the `dagrider-net` concurrent runtime.
//!
//! Each [`Surface`] is a small, self-contained concurrent scenario built
//! from the *real* runtime types (`SendQueue`, `FramePool`, `Shutdown`,
//! `Waker`, the shimmed channels) with its invariants asserted inline.
//! [`dagrider_net::sync::model::explore`] then runs the scenario under
//! bounded exhaustive and seeded random interleavings; any deadlock,
//! failed assertion, or livelock comes back as a replayable schedule.
//!
//! The surfaces cover the runtime's load-bearing concurrency structures:
//!
//! 1. **SendQueue push/pop/drop** — drop-oldest accounting under
//!    concurrent producers and a consumer draining with `try_pop`, as
//!    the reactor does.
//! 2. **FramePool recycling** — cross-thread clone/drop/re-encode; a
//!    double-put or premature recycle shows up as payload corruption.
//! 3. **WAL writer** — the durability flusher's group-drain loop
//!    (`wal_flush_loop`) against a producer and shutdown: every
//!    persisted event must land in the sink exactly once, in order,
//!    inside a committed group, and the final sync must run.
//! 4. **WAL compaction** — snapshot installation interleaved with
//!    appends on the same channel: the snapshot must supersede exactly
//!    the events queued before it and never swallow those after.
//! 5. **Reactor wakeup** — the reactor's park/unpark protocol: racing
//!    producers push work and ring the `Waker`; the surface parks
//!    untimed so a lost wake is a deadlock, not a slow sweep.
//! 6. **Reactor shutdown** — shutdown signalled (twice, concurrently)
//!    while the reactor is mid-sweep, about to park, or parked: the
//!    signal-then-wake pair must terminate the loop on every schedule.
//!
//! Run everything via the `dagrider-check` binary, or call
//! [`check_surface`] from tests.

#![forbid(unsafe_code)]

use dagrider_analysis::DagSnapshot;
use dagrider_core::{Dag, DurableEvent};
use dagrider_net::sync::atomic::Ordering;
use dagrider_net::sync::model::{explore, Config, Report, Search};
use dagrider_net::sync::{thread, Arc, Mutex, PoisonError};
use dagrider_net::wal::{wal_channel, wal_flush_loop, WalSink};
use dagrider_net::{Frame, FramePool, Pop, SendQueue, Shutdown, Waker};
use dagrider_store::StoreSnapshot;
use dagrider_types::{Batch, Committee, ProcessId};

/// One model-checked concurrency scenario.
#[derive(Clone, Copy)]
pub struct Surface {
    /// Stable identifier (CLI `--surface` argument).
    pub name: &'static str,
    /// What the scenario exercises and which invariants it asserts.
    pub description: &'static str,
    /// The scenario body; run it under [`explore`].
    pub body: fn(),
}

impl std::fmt::Debug for Surface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Surface").field("name", &self.name).finish_non_exhaustive()
    }
}

/// Every checkable surface, in documentation order.
pub fn surfaces() -> Vec<Surface> {
    vec![
        Surface {
            name: "send-queue",
            description: "SendQueue drop-oldest accounting under two producers \
                          and a concurrent draining consumer",
            body: send_queue_accounting,
        },
        Surface {
            name: "frame-pool",
            description: "FramePool buffer recycling across threads: clone, drop, \
                          and re-encode must never alias live frames",
            body: frame_pool_recycling,
        },
        Surface {
            name: "wal-writer",
            description: "durability flusher group-drain loop under producer \
                          and shutdown: every event lands exactly once, in \
                          order, inside a committed group",
            body: wal_writer,
        },
        Surface {
            name: "wal-compaction",
            description: "snapshot install racing appends on the durability \
                          channel: the snapshot supersedes exactly the events \
                          queued before it",
            body: wal_compaction,
        },
        Surface {
            name: "reactor-wakeup",
            description: "reactor park/unpark against racing producers: the \
                          Waker's pending latch must never lose a wake (the \
                          surface parks untimed, so a lost wake is a deadlock)",
            body: reactor_wakeup,
        },
        Surface {
            name: "reactor-shutdown",
            description: "shutdown signalled twice, concurrently, against a \
                          parked (or about-to-park) reactor: the \
                          signal-then-wake pair must terminate the loop on \
                          every schedule",
            body: reactor_shutdown,
        },
    ]
}

/// Looks up a surface by name.
pub fn surface(name: &str) -> Option<Surface> {
    surfaces().into_iter().find(|s| s.name == name)
}

/// Runs one surface under `search` within `config`'s bounds.
pub fn check_surface(surface: &Surface, config: &Config, search: Search) -> Report {
    explore(config, search, surface.body)
}

/// A conservative default exploration budget, sized so the full suite
/// stays in CI's time box even on one core.
pub fn default_config() -> Config {
    Config { max_iterations: 4_000, max_steps: 20_000, preemption_bound: Some(2) }
}

fn frame(tag: u8) -> Frame {
    Frame::from_payload(&[tag])
}

fn lock_count(counter: &Mutex<u64>) -> u64 {
    *counter.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Surface 1: two producers race a draining consumer on a capacity-2
/// queue. Invariant: every accepted frame is either delivered or
/// counted dropped — `popped + remaining + dropped == accepted` — and
/// the queue never exceeds capacity.
fn send_queue_accounting() {
    let queue = Arc::new(SendQueue::new(2));

    let qa = Arc::clone(&queue);
    let producer_a = thread::spawn(move || {
        let mut accepted = 0u64;
        for tag in [1u8, 2] {
            if qa.push(frame(tag)) {
                accepted += 1;
            }
        }
        accepted
    });
    let qb = Arc::clone(&queue);
    let producer_b = thread::spawn(move || u64::from(qb.push(frame(3))));

    // Drain concurrently with the producers, as the reactor does: an
    // empty queue here is the scheduler exploring the "consumer outran
    // the producers" branch.
    let mut popped = 0u64;
    loop {
        match queue.try_pop() {
            Pop::Frame(_) => popped += 1,
            Pop::Empty => break,
            Pop::Closed => unreachable!("queue is never closed in this scenario"),
        }
    }

    let accepted = producer_a.join().expect("producer a") + producer_b.join().expect("producer b");
    // Producers are done; drain what is left.
    let mut remaining = 0u64;
    while let Pop::Frame(_) = queue.try_pop() {
        remaining += 1;
    }
    assert!(queue.is_empty(), "queue must be empty after a full drain with no live producers");
    assert_eq!(
        popped + remaining + queue.dropped(),
        accepted,
        "drop-oldest accounting lost a frame: popped {popped} + remaining {remaining} \
         + dropped {} != accepted {accepted}",
        queue.dropped()
    );
}

/// Surface 2: frames cloned across threads while the pool recycles
/// buffers. A buffer returned while a handle is live (aliasing) or
/// returned twice (double-put) corrupts a payload assertion; losing the
/// recycle path shows as the pool staying empty.
fn frame_pool_recycling() {
    let pool = Arc::new(FramePool::new());

    let alpha = pool.encode_with(|buf| buf.extend_from_slice(b"alpha"));
    let alpha_clone = alpha.clone();
    let pool_remote = Arc::clone(&pool);
    let remote = thread::spawn(move || {
        // The clone's bytes must stay intact however the drops and the
        // concurrent encode below interleave.
        assert_eq!(alpha_clone.payload(), b"alpha", "live frame payload corrupted");
        let beta = pool_remote.encode_with(|buf| buf.extend_from_slice(b"beta"));
        assert_eq!(beta.payload(), b"beta", "freshly encoded frame corrupted");
        drop(alpha_clone);
    });

    assert_eq!(alpha.payload(), b"alpha", "original frame payload corrupted");
    drop(alpha);
    remote.join().expect("remote thread");

    // All handles are dropped: encoding twice more must observe sane,
    // distinct payloads whichever buffers got recycled.
    let gamma = pool.encode_with(|buf| buf.extend_from_slice(b"gamma"));
    let delta = pool.encode_with(|buf| buf.extend_from_slice(b"delta"));
    assert_eq!(gamma.payload(), b"gamma");
    assert_eq!(delta.payload(), b"delta");
}

/// An in-memory [`WalSink`] with shared, lock-guarded observation
/// state, so the surfaces below can assert on what the flusher did
/// after joining it. `install_snapshot` mirrors the real store: it
/// truncates the log (the snapshot supersedes everything before it).
#[derive(Clone)]
struct MemSink {
    log: Arc<Mutex<Vec<DurableEvent>>>,
    commits: Arc<Mutex<u64>>,
    snapshots: Arc<Mutex<u64>>,
    synced: Arc<Mutex<bool>>,
}

impl MemSink {
    fn new() -> Self {
        Self {
            log: Arc::new(Mutex::new(Vec::new())),
            commits: Arc::new(Mutex::new(0)),
            snapshots: Arc::new(Mutex::new(0)),
            synced: Arc::new(Mutex::new(false)),
        }
    }
}

impl WalSink for MemSink {
    fn append(&mut self, event: &DurableEvent) -> std::io::Result<()> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
        Ok(())
    }

    fn commit(&mut self) -> std::io::Result<()> {
        *self.commits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        *self.synced.lock().unwrap_or_else(PoisonError::into_inner) = true;
        Ok(())
    }

    fn install_snapshot(&mut self, _snapshot: &StoreSnapshot) -> std::io::Result<()> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).clear();
        *self.snapshots.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        Ok(())
    }
}

/// A durable event distinguishable by `tag` without any crypto.
fn durable_event(tag: u32) -> DurableEvent {
    DurableEvent::Batch(Batch::new(ProcessId::new(0), tag, Vec::new()))
}

/// An empty compacted snapshot, enough to drive the install path.
fn empty_snapshot() -> StoreSnapshot {
    let committee = Committee::new(4).expect("4 is a valid committee size");
    StoreSnapshot::from_parts(DagSnapshot::capture(&Dag::new(committee)), Vec::new(), Vec::new())
}

/// Surface 3: the durability flusher in miniature — a consensus-shaped
/// producer persisting groups of events while the flusher drains
/// whatever has accumulated into single commit groups, then shutdown by
/// handle drop. Invariants: every event lands exactly once and in
/// append order regardless of how the groups interleave, at least one
/// commit boundary covers them, and the disconnect path runs the final
/// hard sync (losing it would strand the tail on a real disk).
fn wal_writer() {
    let (handle, jobs) = wal_channel();
    let sink = MemSink::new();
    let observed = sink.clone();

    let flusher = thread::spawn(move || {
        let mut sink = sink;
        wal_flush_loop(&mut sink, &jobs);
    });
    let producer = thread::spawn(move || {
        handle.persist(vec![durable_event(1), durable_event(2)]);
        handle.persist(vec![durable_event(3)]);
        // The handle drops here: the flusher must drain both groups,
        // commit them, and exit through the final sync.
    });
    producer.join().expect("producer exits cleanly");
    flusher.join().expect("flusher must observe the disconnect");

    let log = observed.log.lock().unwrap_or_else(PoisonError::into_inner).clone();
    let expected: Vec<DurableEvent> = (1..=3).map(durable_event).collect();
    assert_eq!(log, expected, "events lost, duplicated, or reordered");
    let commits = lock_count(&observed.commits);
    assert!((1..=2).contains(&commits), "3 events in 2 jobs need 1-2 commits, got {commits}");
    assert!(
        *observed.synced.lock().unwrap_or_else(PoisonError::into_inner),
        "the shutdown path must hard-sync the tail"
    );
}

/// Surface 4: compaction on the durability channel — append, snapshot,
/// append, in the single-producer order the consensus loop guarantees
/// (drain-then-capture). Invariant: however the flusher groups the
/// jobs, the snapshot supersedes exactly the events queued before it,
/// so the final log holds exactly the post-snapshot events.
fn wal_compaction() {
    let (handle, jobs) = wal_channel();
    let sink = MemSink::new();
    let observed = sink.clone();

    let flusher = thread::spawn(move || {
        let mut sink = sink;
        wal_flush_loop(&mut sink, &jobs);
    });
    let producer = thread::spawn(move || {
        handle.persist(vec![durable_event(1)]);
        handle.snapshot(empty_snapshot());
        handle.persist(vec![durable_event(2), durable_event(3)]);
    });
    producer.join().expect("producer exits cleanly");
    flusher.join().expect("flusher must observe the disconnect");

    let log = observed.log.lock().unwrap_or_else(PoisonError::into_inner).clone();
    let expected: Vec<DurableEvent> = (2..=3).map(durable_event).collect();
    assert_eq!(log, expected, "snapshot must supersede exactly the events before it");
    assert_eq!(lock_count(&observed.snapshots), 1, "exactly one snapshot install");
    assert!(
        *observed.synced.lock().unwrap_or_else(PoisonError::into_inner),
        "the shutdown path must hard-sync the tail"
    );
}

/// Surface 5: the reactor's park/unpark protocol — producers push work
/// and ring the [`Waker`]; the reactor drains with non-blocking
/// `try_pop` and parks between sweeps. The real loop parks with a
/// timeout as a belt-and-braces fallback; the surface strips the
/// timeout so a wake landing between the last empty poll and the park
/// (the classic lost-wakeup window) turns into a deadlock the explorer
/// reports, instead of a silently late sweep.
fn reactor_wakeup() {
    let waker = Arc::new(Waker::new());
    let queue = Arc::new(SendQueue::new(4));

    let producers: Vec<_> = [1u8, 2]
        .into_iter()
        .map(|tag| {
            let queue = Arc::clone(&queue);
            let waker = Arc::clone(&waker);
            thread::spawn(move || {
                queue.push(frame(tag));
                waker.wake();
            })
        })
        .collect();

    let mut drained = 0u64;
    while drained < 2 {
        while let Pop::Frame(_) = queue.try_pop() {
            drained += 1;
        }
        if drained < 2 {
            waker.wait(); // untimed on purpose: a lost wake deadlocks here
        }
    }
    for producer in producers {
        producer.join().expect("producer exits cleanly");
    }
    assert_eq!(drained, 2, "the reactor must observe every pushed frame");
}

/// Surface 6: shutdown during poll — `NetNode::shutdown` signals the
/// latch and then rings the waker, and a racing second shutdown does
/// the same (the double-call path). Whether the reactor is mid-sweep,
/// between the signal check and the park, or already parked, it must
/// terminate: the pending latch makes a signal-then-wake pair visible
/// to a park that has not happened yet.
fn reactor_shutdown() {
    let waker = Arc::new(Waker::new());
    let stop = Arc::new(Shutdown::new());
    let queue = Arc::new(SendQueue::new(2));
    queue.push(frame(9));

    let reactor_stop = Arc::clone(&stop);
    let reactor_waker = Arc::clone(&waker);
    let reactor_queue = Arc::clone(&queue);
    let reactor = thread::spawn(move || {
        let mut drained = 0u64;
        loop {
            if reactor_stop.is_signalled() {
                return drained;
            }
            while let Pop::Frame(_) = reactor_queue.try_pop() {
                drained += 1;
            }
            reactor_waker.wait(); // untimed: shutdown must ring through
        }
    });

    let second_stop = Arc::clone(&stop);
    let second_waker = Arc::clone(&waker);
    let second = thread::spawn(move || {
        second_stop.signal();
        second_waker.wake();
    });
    stop.signal();
    waker.wake();
    second.join().expect("second signaller exits cleanly");
    let drained = reactor.join().expect("reactor must terminate under every schedule");
    assert!(drained <= 1, "only one frame was ever pushed, drained {drained}");
}

// `lock_count` is used by the deliberately-buggy self-test scenarios in
// tests/model_suite.rs via the public helpers below.

/// A deliberately seeded lock-order inversion (AB/BA) for self-testing
/// the checker: some schedule must deadlock.
pub fn seeded_lock_order_inversion() {
    let a = Arc::new(Mutex::new(0u64));
    let b = Arc::new(Mutex::new(0u64));
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let inverted = thread::spawn(move || {
        let ga = a2.lock().unwrap_or_else(PoisonError::into_inner);
        let _gb = b2.lock().unwrap_or_else(PoisonError::into_inner);
        drop(ga);
    });
    {
        let gb = b.lock().unwrap_or_else(PoisonError::into_inner);
        let _ga = a.lock().unwrap_or_else(PoisonError::into_inner);
        drop(gb);
    }
    let _ = inverted.join();
    let _ = (lock_count(&a), lock_count(&b));
}

/// A deliberately lost wakeup for self-testing: the producer sets the
/// flag *outside* the lock before notifying, so a consumer that checked
/// the flag but has not parked yet misses the notification and waits
/// untimed forever on some schedules.
pub fn seeded_lost_wakeup() {
    use dagrider_net::sync::atomic::AtomicBool;
    use dagrider_net::sync::Condvar;

    struct Bad {
        flag: AtomicBool,
        gate: Mutex<()>,
        cv: Condvar,
    }
    let bad =
        Arc::new(Bad { flag: AtomicBool::new(false), gate: Mutex::new(()), cv: Condvar::new() });
    let notifier = Arc::clone(&bad);
    let producer = thread::spawn(move || {
        notifier.flag.store(true, Ordering::Release); // outside the lock: bug
        notifier.cv.notify_all();
    });
    if !bad.flag.load(Ordering::Acquire) {
        let guard = bad.gate.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-check inside the lock is "forgotten": untimed wait.
        let _guard = bad.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
    }
    let _ = producer.join();
}

/// A deliberately broken reactor waker for self-testing: `wake` is a
/// naked notify with no pending latch, so a wake landing between the
/// reactor's last empty poll and its park vanishes. The explorer must
/// find the schedule where the producer pushes and notifies in that
/// window, leaving the reactor parked forever — the exact bug the real
/// [`Waker`] latch exists to rule out.
pub fn seeded_reactor_wakeup_bug() {
    use dagrider_net::sync::Condvar;

    let gate = Arc::new((Mutex::new(()), Condvar::new()));
    let queue = Arc::new(SendQueue::new(2));

    let producer_gate = Arc::clone(&gate);
    let producer_queue = Arc::clone(&queue);
    let producer = thread::spawn(move || {
        producer_queue.push(frame(1));
        producer_gate.1.notify_all(); // no latch: this wake can be lost
    });

    let mut drained = 0u64;
    while drained < 1 {
        while let Pop::Frame(_) = queue.try_pop() {
            drained += 1;
        }
        if drained < 1 {
            let guard = gate.0.lock().unwrap_or_else(PoisonError::into_inner);
            let _guard = gate.1.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
    let _ = producer.join();
}
