//! Real-network runtime for the sans-I/O DAG-Rider engine.
//!
//! Where `dagrider-simnet` drives the engine inside a deterministic
//! simulation, this crate drives the *same* engine over real TCP
//! sockets with OS threads — nothing protocol-level lives here, which
//! is the point of the engine/driver split:
//!
//! * [`frame`] — length-prefixed framing with a hard size bound, both
//!   blocking ([`read_frame`]) and incremental ([`FrameReader`], for
//!   non-blocking sockets).
//! * [`wire`] — the [`WireMsg`] envelope (peer handshake, opaque engine
//!   payloads — batches, their fetches and the sync streams of joining
//!   processes among them — and the client submit/subscribe protocol).
//! * [`backoff`] — capped exponential reconnect delays.
//! * [`queue`] — bounded per-peer outbound queues with drop-oldest
//!   backpressure, drained by the reactor without blocking.
//! * `reactor` (crate-private) — the readiness-based event loop: one
//!   thread owns every socket, one link per peer plus the clients. It
//!   admits client transactions and hands them to consensus, passes peer
//!   frames on, and tells subscribed clients when their transactions are
//!   ordered, so a node runs three threads (four with a store) regardless
//!   of cluster size or client count.
//! * [`client`] — the client submission front end: admission counters
//!   and the ordered-notification matcher the reactor keeps.
//! * [`runtime`] — [`NetNode`]: one DAG-Rider process as an
//!   event-driven TCP runtime with graceful shutdown. Its consensus
//!   thread checks peer input as the engine takes it, a burst of events
//!   per wake-up, and routes only the engine's sends, broadcasts, timers
//!   and ordered vertices. Transactions fill the engine's open batch,
//!   which seals once full ([`BATCH_MAX_BYTES`]) or when the engine
//!   creates its next vertex; the engine broadcasts each sealed batch
//!   ahead of the vertex that names it, fetches and serves missing ones,
//!   and orders batch digests.
//! * [`wal`] — off-thread durability: the consensus loop hands durable
//!   events to a flusher thread that appends them to a
//!   `dagrider-store` write-ahead log and installs compacted
//!   snapshots; on restart the node replays its store before syncing
//!   only the missed suffix from peers.
//! * [`sync`] — the shimmed concurrency primitives every module above
//!   must use (enforced by `cargo xtask lint`), plus [`sync::model`],
//!   the deterministic interleaving explorer behind `dagrider-check`.
//! * [`signal`] — [`Shutdown`], the one-shot shutdown latch, and
//!   [`Waker`], the reactor's lost-wakeup-proof readiness bell.
//!
//! The `cluster` binary launches an `n = 4` cluster as real OS processes
//! on localhost, submits a transaction to each, and checks that every
//! process emits the same total order (optionally SIGKILLing and
//! restarting one process mid-run to exercise sync-on-rejoin):
//!
//! ```text
//! cargo run --release -p dagrider-net --bin cluster
//! cargo run --release -p dagrider-net --bin cluster -- --restart
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod client;
pub mod frame;
pub mod queue;
pub(crate) mod reactor;
pub mod runtime;
pub mod signal;
pub mod sync;
pub mod wal;
pub mod wire;

pub use backoff::Backoff;
pub use client::{AdmissionSnapshot, AdmissionStats};
pub use dagrider_core::BATCH_MAX_BYTES;
pub use frame::{read_frame, write_frame, Fill, Frame, FramePool, FrameReader, MAX_FRAME_LEN};
pub use queue::{Pop, SendQueue};
pub use runtime::{NetConfig, NetNode, StoreConfig};
pub use signal::{Shutdown, Waker};
pub use wal::{wal_channel, wal_flush_loop, WalHandle, WalJob, WalJobs, WalSink};
pub use wire::{RejectReason, WireMsg};
