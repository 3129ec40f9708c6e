//! Structured protocol event tracing.
//!
//! Every protocol-level transition a DAG-Rider node goes through — vertex
//! creation, RBC delivery, DAG insertion, round advancement, coin flips,
//! leader commits/skips, causal-order delivery, garbage collection, and the
//! phases of the underlying reliable-broadcast primitives — is describable
//! as a [`TraceEvent`]. The engine returns these events next to its
//! outputs; a driver that wants a trace stamps them with its virtual
//! [`Time`] into a [`Tracer`], a pre-allocated ring of [`TraceRecord`]s,
//! so the paper's quantitative claims (expected constant time per wave in
//! asynchronous time units, §3/§6) can be measured rather than assumed.
//!
//! Events are `Copy`, so recording never allocates once the ring is built.
//!
//! ```
//! use dagrider_trace::{TraceEvent, Tracer};
//! use dagrider_types::Time;
//! use dagrider_types::{ProcessId, Round};
//!
//! let mut tracer = Tracer::new(ProcessId::new(0), 64);
//! tracer.set_now(Time::new(3));
//! tracer.record(TraceEvent::RoundAdvanced { round: Round::new(1) });
//! let records = tracer.records();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].at, Time::new(3));
//! ```

#![forbid(unsafe_code)]

use std::fmt;

use dagrider_types::Time;
use dagrider_types::{BatchDigest, Decode, DecodeError, Encode, ProcessId, Round, VertexRef, Wave};

/// Which reliable-broadcast primitive emitted an [`TraceEvent::RbcPhase`]
/// event (the three instantiations of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RbcPrimitive {
    /// Bracha's double-echo broadcast (INIT / ECHO / READY).
    Bracha,
    /// Cachin–Tessaro asynchronous verifiable information dispersal
    /// (Disperse / Echo / Ready over erasure-coded fragments).
    Avid,
    /// Probabilistic gossip broadcast (Murmur / Sieve / Contagion).
    Probabilistic,
}

/// The abstract phase an RBC instance reached at a process, unifying the
/// three primitives' message flavours so conformance tests can assert
/// phase ordering generically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RbcPhase {
    /// The sender started the broadcast (Bracha INIT, AVID Disperse,
    /// probabilistic Gossip).
    Init,
    /// This process first vouched for a payload (sent its ECHO).
    Witness,
    /// This process committed to the payload (sent its READY).
    Commit,
    /// The primitive delivered the payload locally.
    Deliver,
}

/// One typed protocol event. All variants are `Copy`: recording an event
/// never allocates, which is what lets instrumentation stay on the hot
/// path of the construction and ordering loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A process created its own vertex for a round (Algorithm 2 line 13,
    /// just before handing it to reliable broadcast).
    VertexCreated {
        /// The created vertex.
        vertex: VertexRef,
    },
    /// Reliable broadcast delivered a vertex payload to this process
    /// (Algorithm 2 line 16).
    VertexRbcDelivered {
        /// The delivered vertex.
        vertex: VertexRef,
    },
    /// A vertex passed validation and joined the local DAG (Algorithm 2
    /// lines 6–9).
    VertexInserted {
        /// The inserted vertex.
        vertex: VertexRef,
    },
    /// The local round counter advanced after a `2f + 1` quorum completed
    /// the previous round (Algorithm 2 lines 11–14).
    RoundAdvanced {
        /// The round entered.
        round: Round,
    },
    /// A wave's four rounds completed locally, triggering the common-coin
    /// release (Algorithm 3 line 31).
    WaveReady {
        /// The completed wave.
        wave: Wave,
    },
    /// The threshold coin for a wave reconstructed, electing its leader
    /// (§2 global perfect coin; Algorithm 3 line 46).
    CoinFlipped {
        /// The wave whose coin flipped.
        wave: Wave,
        /// The elected leader process.
        leader: ProcessId,
    },
    /// A wave's leader vertex was committed (Algorithm 3 line 36 directly,
    /// or lines 39–43 retroactively).
    LeaderCommitted {
        /// The committed wave.
        wave: Wave,
        /// The leader vertex.
        leader: VertexRef,
        /// `true` for a direct commit (2f + 1 supporters observed),
        /// `false` for a retroactive indirect commit.
        direct: bool,
    },
    /// A wave resolved without a commit: no leader vertex or too few
    /// supporters at interpretation time (the wave may still commit
    /// indirectly later).
    LeaderSkipped {
        /// The skipped wave.
        wave: Wave,
        /// The elected (but uncommitted) leader process.
        leader: ProcessId,
    },
    /// A vertex was appended to the total order (Algorithm 3 lines 51–57:
    /// deterministic traversal of the committed leader's causal history).
    VertexOrdered {
        /// The ordered vertex.
        vertex: VertexRef,
        /// The wave whose leader's causal history delivered it.
        wave: Wave,
        /// Zero-based position in this process's total order.
        position: u64,
    },
    /// Garbage collection dropped all vertices below a round floor.
    Pruned {
        /// The new lowest retained round.
        floor: Round,
        /// Vertices dropped by this pruning pass.
        dropped: u64,
    },
    /// A reliable-broadcast instance advanced to a phase at this process.
    RbcPhase {
        /// The broadcast instance, named by the vertex slot it carries.
        instance: VertexRef,
        /// Which primitive is running.
        primitive: RbcPrimitive,
        /// The phase reached.
        phase: RbcPhase,
    },
    /// A batch became available in this process's local batch store
    /// (own assembly, peer dissemination, or a completed fetch).
    BatchStored {
        /// The stored batch's digest.
        digest: BatchDigest,
    },
    /// The total order reached a vertex naming this digest.
    DigestOrdered {
        /// The ordered digest.
        digest: BatchDigest,
    },
    /// An ordered digest resolved against the local batch store,
    /// completing `a_deliver` for its vertex. The vertex entered the DAG
    /// only once its batches were local, so this follows its
    /// `DigestOrdered` in the same step.
    BatchResolved {
        /// The resolved batch's digest.
        digest: BatchDigest,
    },
    /// The engine asked a peer for a batch that a buffered vertex names
    /// and this process lacks (the fetch path, which keeps rotating over
    /// the peers until the batch arrives).
    BatchFetchRequested {
        /// The missing batch's digest.
        digest: BatchDigest,
        /// The peer asked.
        from: ProcessId,
    },
}

/// A [`TraceEvent`] stamped with when and where it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Per-process sequence number (0, 1, 2, … in recording order).
    pub seq: u64,
    /// Virtual time at which the event was recorded.
    pub at: Time,
    /// The process that recorded the event.
    pub process: ProcessId,
    /// The event itself.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {} #{}] {:?}", self.at, self.process, self.seq, self.event)
    }
}

/// A ring-buffered sink for [`TraceRecord`]s.
///
/// The buffer is allocated once at construction; recording into a full
/// ring overwrites the oldest record and increments
/// [`Tracer::dropped`], so the hot path never reallocates.
#[derive(Debug, Clone)]
pub struct Tracer {
    process: ProcessId,
    ring: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the oldest record in `ring` (only meaningful once the
    /// ring has wrapped).
    start: usize,
    next_seq: u64,
    dropped: u64,
    now: Time,
}

impl Tracer {
    /// Creates a tracer for `process` holding at most `capacity` records.
    /// A zero capacity is rounded up to one so the ring is never empty.
    pub fn new(process: ProcessId, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            process,
            ring: Vec::with_capacity(capacity),
            capacity,
            start: 0,
            next_seq: 0,
            dropped: 0,
            now: Time::ZERO,
        }
    }

    /// Sets the virtual time stamped onto subsequent records.
    pub fn set_now(&mut self, now: Time) {
        self.now = now;
    }

    /// Records an event at the current virtual time.
    pub fn record(&mut self, event: TraceEvent) {
        let record = TraceRecord { seq: self.next_seq, at: self.now, process: self.process, event };
        self.next_seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else {
            self.ring[self.start] = record;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Total events recorded over the tracer's lifetime (including any
    /// since overwritten).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.start..]);
        out.extend_from_slice(&self.ring[..self.start]);
        out
    }
}

// --- wire codec -----------------------------------------------------------
//
// Trace records cross process boundaries (the `trace-dag` CLI serializes
// per-process traces for offline analysis), so they get the same compact,
// malformed-input-rejecting codec treatment as protocol messages.

impl Encode for RbcPrimitive {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            RbcPrimitive::Bracha => 0,
            RbcPrimitive::Avid => 1,
            RbcPrimitive::Probabilistic => 2,
        };
        tag.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for RbcPrimitive {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(RbcPrimitive::Bracha),
            1 => Ok(RbcPrimitive::Avid),
            2 => Ok(RbcPrimitive::Probabilistic),
            _ => Err(DecodeError::Invalid("unknown RBC primitive tag")),
        }
    }
}

impl Encode for RbcPhase {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            RbcPhase::Init => 0,
            RbcPhase::Witness => 1,
            RbcPhase::Commit => 2,
            RbcPhase::Deliver => 3,
        };
        tag.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for RbcPhase {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(RbcPhase::Init),
            1 => Ok(RbcPhase::Witness),
            2 => Ok(RbcPhase::Commit),
            3 => Ok(RbcPhase::Deliver),
            _ => Err(DecodeError::Invalid("unknown RBC phase tag")),
        }
    }
}

// Tags 11-13 and 18 belonged to variants nothing produced and are
// retired. The other tags keep their numbers: golden stream digests hash
// events with this codec.
impl Encode for TraceEvent {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TraceEvent::VertexCreated { vertex } => {
                0u8.encode(buf);
                vertex.encode(buf);
            }
            TraceEvent::VertexRbcDelivered { vertex } => {
                1u8.encode(buf);
                vertex.encode(buf);
            }
            TraceEvent::VertexInserted { vertex } => {
                2u8.encode(buf);
                vertex.encode(buf);
            }
            TraceEvent::RoundAdvanced { round } => {
                3u8.encode(buf);
                round.encode(buf);
            }
            TraceEvent::WaveReady { wave } => {
                4u8.encode(buf);
                wave.number().encode(buf);
            }
            TraceEvent::CoinFlipped { wave, leader } => {
                5u8.encode(buf);
                wave.number().encode(buf);
                leader.encode(buf);
            }
            TraceEvent::LeaderCommitted { wave, leader, direct } => {
                6u8.encode(buf);
                wave.number().encode(buf);
                leader.encode(buf);
                direct.encode(buf);
            }
            TraceEvent::LeaderSkipped { wave, leader } => {
                7u8.encode(buf);
                wave.number().encode(buf);
                leader.encode(buf);
            }
            TraceEvent::VertexOrdered { vertex, wave, position } => {
                8u8.encode(buf);
                vertex.encode(buf);
                wave.number().encode(buf);
                position.encode(buf);
            }
            TraceEvent::Pruned { floor, dropped } => {
                9u8.encode(buf);
                floor.encode(buf);
                dropped.encode(buf);
            }
            TraceEvent::RbcPhase { instance, primitive, phase } => {
                10u8.encode(buf);
                instance.encode(buf);
                primitive.encode(buf);
                phase.encode(buf);
            }
            TraceEvent::BatchStored { digest } => {
                14u8.encode(buf);
                digest.encode(buf);
            }
            TraceEvent::DigestOrdered { digest } => {
                15u8.encode(buf);
                digest.encode(buf);
            }
            TraceEvent::BatchResolved { digest } => {
                16u8.encode(buf);
                digest.encode(buf);
            }
            TraceEvent::BatchFetchRequested { digest, from } => {
                17u8.encode(buf);
                digest.encode(buf);
                from.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            TraceEvent::VertexCreated { vertex }
            | TraceEvent::VertexRbcDelivered { vertex }
            | TraceEvent::VertexInserted { vertex } => vertex.encoded_len(),
            TraceEvent::RoundAdvanced { round } => round.encoded_len(),
            TraceEvent::WaveReady { wave } => wave.number().encoded_len(),
            TraceEvent::CoinFlipped { wave, leader }
            | TraceEvent::LeaderSkipped { wave, leader } => {
                wave.number().encoded_len() + leader.encoded_len()
            }
            TraceEvent::LeaderCommitted { wave, leader, direct } => {
                wave.number().encoded_len() + leader.encoded_len() + direct.encoded_len()
            }
            TraceEvent::VertexOrdered { vertex, wave, position } => {
                vertex.encoded_len() + wave.number().encoded_len() + position.encoded_len()
            }
            TraceEvent::Pruned { floor, dropped } => floor.encoded_len() + dropped.encoded_len(),
            TraceEvent::RbcPhase { instance, primitive, phase } => {
                instance.encoded_len() + primitive.encoded_len() + phase.encoded_len()
            }
            TraceEvent::BatchStored { digest }
            | TraceEvent::DigestOrdered { digest }
            | TraceEvent::BatchResolved { digest } => digest.encoded_len(),
            TraceEvent::BatchFetchRequested { digest, from } => {
                digest.encoded_len() + from.encoded_len()
            }
        }
    }
}

impl Decode for TraceEvent {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(TraceEvent::VertexCreated { vertex: VertexRef::decode(buf)? }),
            1 => Ok(TraceEvent::VertexRbcDelivered { vertex: VertexRef::decode(buf)? }),
            2 => Ok(TraceEvent::VertexInserted { vertex: VertexRef::decode(buf)? }),
            3 => Ok(TraceEvent::RoundAdvanced { round: Round::decode(buf)? }),
            4 => Ok(TraceEvent::WaveReady { wave: Wave::new(u64::decode(buf)?) }),
            5 => Ok(TraceEvent::CoinFlipped {
                wave: Wave::new(u64::decode(buf)?),
                leader: ProcessId::decode(buf)?,
            }),
            6 => Ok(TraceEvent::LeaderCommitted {
                wave: Wave::new(u64::decode(buf)?),
                leader: VertexRef::decode(buf)?,
                direct: bool::decode(buf)?,
            }),
            7 => Ok(TraceEvent::LeaderSkipped {
                wave: Wave::new(u64::decode(buf)?),
                leader: ProcessId::decode(buf)?,
            }),
            8 => Ok(TraceEvent::VertexOrdered {
                vertex: VertexRef::decode(buf)?,
                wave: Wave::new(u64::decode(buf)?),
                position: u64::decode(buf)?,
            }),
            9 => Ok(TraceEvent::Pruned { floor: Round::decode(buf)?, dropped: u64::decode(buf)? }),
            10 => Ok(TraceEvent::RbcPhase {
                instance: VertexRef::decode(buf)?,
                primitive: RbcPrimitive::decode(buf)?,
                phase: RbcPhase::decode(buf)?,
            }),
            14 => Ok(TraceEvent::BatchStored { digest: BatchDigest::decode(buf)? }),
            15 => Ok(TraceEvent::DigestOrdered { digest: BatchDigest::decode(buf)? }),
            16 => Ok(TraceEvent::BatchResolved { digest: BatchDigest::decode(buf)? }),
            17 => Ok(TraceEvent::BatchFetchRequested {
                digest: BatchDigest::decode(buf)?,
                from: ProcessId::decode(buf)?,
            }),
            _ => Err(DecodeError::Invalid("unknown trace event tag")),
        }
    }
}

impl Encode for TraceRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.at.ticks().encode(buf);
        self.process.encode(buf);
        self.event.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.seq.encoded_len()
            + self.at.ticks().encoded_len()
            + self.process.encoded_len()
            + self.event.encoded_len()
    }
}

impl Decode for TraceRecord {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            seq: u64::decode(buf)?,
            at: Time::new(u64::decode(buf)?),
            process: ProcessId::decode(buf)?,
            event: TraceEvent::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let v = VertexRef::new(Round::new(3), ProcessId::new(1));
        vec![
            TraceEvent::VertexCreated { vertex: v },
            TraceEvent::VertexRbcDelivered { vertex: v },
            TraceEvent::VertexInserted { vertex: v },
            TraceEvent::RoundAdvanced { round: Round::new(4) },
            TraceEvent::WaveReady { wave: Wave::new(1) },
            TraceEvent::CoinFlipped { wave: Wave::new(1), leader: ProcessId::new(2) },
            TraceEvent::LeaderCommitted { wave: Wave::new(1), leader: v, direct: true },
            TraceEvent::LeaderSkipped { wave: Wave::new(2), leader: ProcessId::new(3) },
            TraceEvent::VertexOrdered { vertex: v, wave: Wave::new(1), position: 7 },
            TraceEvent::Pruned { floor: Round::new(9), dropped: 12 },
            TraceEvent::RbcPhase {
                instance: v,
                primitive: RbcPrimitive::Avid,
                phase: RbcPhase::Commit,
            },
            TraceEvent::BatchStored { digest: BatchDigest::new([10; 32]) },
            TraceEvent::DigestOrdered { digest: BatchDigest::new([11; 32]) },
            TraceEvent::BatchResolved { digest: BatchDigest::new([12; 32]) },
            TraceEvent::BatchFetchRequested {
                digest: BatchDigest::new([13; 32]),
                from: ProcessId::new(1),
            },
        ]
    }

    #[test]
    fn records_are_stamped_with_time_and_sequence() {
        let mut tracer = Tracer::new(ProcessId::new(2), 16);
        tracer.set_now(Time::new(5));
        tracer.record(TraceEvent::RoundAdvanced { round: Round::new(1) });
        tracer.set_now(Time::new(9));
        tracer.record(TraceEvent::WaveReady { wave: Wave::new(1) });
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[0].at, Time::new(5));
        assert_eq!(records[1].seq, 1);
        assert_eq!(records[1].at, Time::new(9));
        assert!(records.iter().all(|r| r.process == ProcessId::new(2)));
        assert_eq!(tracer.recorded(), 2);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_oldest_records_first() {
        let mut tracer = Tracer::new(ProcessId::new(0), 3);
        for round in 0..5u64 {
            tracer.record(TraceEvent::RoundAdvanced { round: Round::new(round) });
        }
        let records = tracer.records();
        assert_eq!(records.len(), 3);
        // Oldest two (rounds 0 and 1) were overwritten.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(tracer.dropped(), 2);
        assert_eq!(tracer.recorded(), 5);
    }

    #[test]
    fn zero_capacity_is_rounded_up() {
        let mut tracer = Tracer::new(ProcessId::new(0), 0);
        tracer.record(TraceEvent::RoundAdvanced { round: Round::new(1) });
        assert_eq!(tracer.records().len(), 1);
    }

    #[test]
    fn every_event_roundtrips() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let record = TraceRecord {
                seq: i as u64,
                at: Time::new(i as u64 * 10),
                process: ProcessId::new(0),
                event,
            };
            let bytes = record.to_bytes();
            assert_eq!(bytes.len(), record.encoded_len(), "encoded_len mismatch for {record}");
            let decoded = TraceRecord::from_bytes(&bytes).expect("roundtrip must decode");
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        for tag in [11, 12, 13, 18, 200] {
            assert!(matches!(
                TraceEvent::from_bytes(&[tag]),
                Err(DecodeError::Invalid("unknown trace event tag"))
            ));
        }
        assert!(matches!(
            RbcPrimitive::from_bytes(&[9]),
            Err(DecodeError::Invalid("unknown RBC primitive tag"))
        ));
        assert!(matches!(
            RbcPhase::from_bytes(&[9]),
            Err(DecodeError::Invalid("unknown RBC phase tag"))
        ));
    }

    #[test]
    fn truncated_records_are_rejected() {
        let record = TraceRecord {
            seq: 3,
            at: Time::new(40),
            process: ProcessId::new(1),
            event: TraceEvent::VertexOrdered {
                vertex: VertexRef::new(Round::new(2), ProcessId::new(0)),
                wave: Wave::new(1),
                position: 5,
            },
        };
        let bytes = record.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                TraceRecord::from_bytes(&bytes[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn phases_order_init_before_deliver() {
        assert!(RbcPhase::Init < RbcPhase::Witness);
        assert!(RbcPhase::Witness < RbcPhase::Commit);
        assert!(RbcPhase::Commit < RbcPhase::Deliver);
    }
}
