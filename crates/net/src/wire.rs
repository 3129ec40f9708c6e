//! The TCP wire envelope.
//!
//! Every frame on a cluster connection carries one [`WireMsg`], encoded
//! with the workspace [`Encode`]/[`Decode`] codec. The envelope separates
//! the transport concerns (identifying the peer, state sync for
//! rejoining processes) from the opaque engine traffic, which stays in
//! the exact byte format the sans-I/O engine emits.

use dagrider_types::{
    bytes_encoded_len, decode_bytes, encode_bytes, Batch, BatchDigest, Decode, DecodeError, Encode,
    ProcessId, Transaction, Vertex,
};

/// One message on a cluster TCP connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// First frame on every (re)connection: identifies the dialing
    /// process. A connection is not trusted for traffic until this
    /// arrives. (Authentication stand-in — a deployment would sign it.)
    Hello(ProcessId),
    /// An opaque engine-to-engine payload (`NodeMessage` bytes), exactly
    /// as the engine's `Send`/`Broadcast` outputs produced it.
    Engine(Vec<u8>),
    /// Asks the peer to stream its retained DAG so a (re)starting process
    /// can catch up before proposing.
    SyncRequest,
    /// One vertex of a peer's retained DAG, in ascending `(round, source)`
    /// order.
    SyncVertex(Vertex),
    /// Terminates a sync stream. Carries the number of `SyncVertex`
    /// frames the peer put on the wire, so the requester can detect
    /// frames a dying connection swallowed (a TCP write that succeeds
    /// is not a delivery) and ask again.
    SyncEnd {
        /// How many `SyncVertex` frames preceded this one.
        served: u64,
    },
    /// Asks the peer to send the named batches: the requester holds a
    /// vertex naming these digests in its buffer but never received the
    /// batches' push. The peer answers
    /// with one [`WireMsg::Batch`] per digest it holds; missing digests
    /// are silently skipped — the requester's engine asks another peer
    /// when its fetch timer fires.
    BatchRequest {
        /// The digests to resolve.
        digests: Vec<BatchDigest>,
    },
    /// One transaction batch: a process pushes each batch it seals to
    /// every peer, ahead of the vertex that names it, and answers a
    /// [`WireMsg::BatchRequest`] with the batches it holds.
    Batch(Batch),
    /// First frame on a client connection: marks the stream as a client
    /// session (submit/subscribe RPC) rather than a peer link. Like
    /// [`WireMsg::Hello`], an authentication stand-in.
    ClientHello,
    /// One client transaction submission. `seq` is a client-chosen
    /// correlation number echoed back in the ack, reject, and ordered
    /// notifications — the client's only bookkeeping handle.
    ClientSubmit {
        /// Client-side correlation number for this submission.
        seq: u64,
        /// The transaction to admit.
        tx: Transaction,
    },
    /// The node admitted submission `seq` into its bounded client queue.
    /// Admission is not ordering: the matching [`WireMsg::ClientOrdered`]
    /// arrives (on a subscribed connection) once the transaction lands
    /// in the committed total order.
    ClientSubmitAck {
        /// The acknowledged submission.
        seq: u64,
    },
    /// The node *refused* submission `seq` — typed load shedding, never a
    /// silent drop. The client may retry after backoff (`QueueFull`,
    /// `NotReady`) or must not retry at all (`Oversized`).
    ClientReject {
        /// The refused submission.
        seq: u64,
        /// Why admission failed.
        reason: RejectReason,
    },
    /// Asks the node to push a [`WireMsg::ClientOrdered`] notification
    /// for each of this connection's admitted submissions once it is
    /// committed in the total order.
    ClientSubscribe,
    /// Submission `seq` (previously acknowledged on this connection) has
    /// been committed in the cluster's total order.
    ClientOrdered {
        /// The ordered submission.
        seq: u64,
    },
}

/// Why a [`WireMsg::ClientSubmit`] was refused (see
/// [`WireMsg::ClientReject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The client's bounded admission queue is full — backpressure.
    /// Retry after a delay; the queue drains at the node's batch rate.
    QueueFull,
    /// The transaction exceeds the node's batch size bound and can never
    /// be admitted. Do not retry.
    Oversized,
    /// The node is still syncing and not yet proposing. Retry after the
    /// node goes live.
    NotReady,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::Oversized => 1,
            RejectReason::NotReady => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, DecodeError> {
        match code {
            0 => Ok(RejectReason::QueueFull),
            1 => Ok(RejectReason::Oversized),
            2 => Ok(RejectReason::NotReady),
            _ => Err(DecodeError::Invalid("unknown client reject reason")),
        }
    }
}

impl Encode for RejectReason {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.code().encode(buf);
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for RejectReason {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Self::from_code(u8::decode(buf)?)
    }
}

impl WireMsg {
    /// Encodes an `Engine(payload)` envelope straight from borrowed
    /// bytes — byte-identical to `WireMsg::Engine(payload.to_vec())`'s
    /// encoding, minus the intermediate `Vec` copy. The hot broadcast
    /// path pairs this with `FramePool::encode_with`.
    pub fn encode_engine_into(payload: &[u8], buf: &mut Vec<u8>) {
        1u8.encode(buf);
        encode_bytes(payload, buf);
    }

    /// Encodes a `Batch(batch)` envelope straight from a borrowed batch —
    /// byte-identical to `WireMsg::Batch(batch.clone())`'s encoding,
    /// minus the clone. Worker fan-out pairs this with
    /// `FramePool::encode_with` so each sealed batch is encoded exactly
    /// once for all peers.
    pub fn encode_batch_into(batch: &Batch, buf: &mut Vec<u8>) {
        6u8.encode(buf);
        batch.encode(buf);
    }
}

impl Encode for WireMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WireMsg::Hello(p) => {
                0u8.encode(buf);
                p.encode(buf);
            }
            WireMsg::Engine(bytes) => {
                1u8.encode(buf);
                encode_bytes(bytes, buf);
            }
            WireMsg::SyncRequest => 2u8.encode(buf),
            WireMsg::SyncVertex(v) => {
                3u8.encode(buf);
                v.encode(buf);
            }
            WireMsg::SyncEnd { served } => {
                4u8.encode(buf);
                served.encode(buf);
            }
            WireMsg::BatchRequest { digests } => {
                5u8.encode(buf);
                digests.encode(buf);
            }
            WireMsg::Batch(batch) => {
                6u8.encode(buf);
                batch.encode(buf);
            }
            WireMsg::ClientHello => 9u8.encode(buf),
            WireMsg::ClientSubmit { seq, tx } => {
                10u8.encode(buf);
                seq.encode(buf);
                tx.encode(buf);
            }
            WireMsg::ClientSubmitAck { seq } => {
                11u8.encode(buf);
                seq.encode(buf);
            }
            WireMsg::ClientReject { seq, reason } => {
                12u8.encode(buf);
                seq.encode(buf);
                reason.encode(buf);
            }
            WireMsg::ClientSubscribe => 13u8.encode(buf),
            WireMsg::ClientOrdered { seq } => {
                14u8.encode(buf);
                seq.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            WireMsg::Hello(p) => p.encoded_len(),
            WireMsg::Engine(bytes) => bytes_encoded_len(bytes),
            WireMsg::SyncRequest => 0,
            WireMsg::SyncVertex(v) => v.encoded_len(),
            WireMsg::SyncEnd { served } => served.encoded_len(),
            WireMsg::BatchRequest { digests } => digests.encoded_len(),
            WireMsg::Batch(batch) => batch.encoded_len(),
            WireMsg::ClientHello | WireMsg::ClientSubscribe => 0,
            WireMsg::ClientSubmit { seq, tx } => seq.encoded_len() + tx.encoded_len(),
            WireMsg::ClientSubmitAck { seq } | WireMsg::ClientOrdered { seq } => seq.encoded_len(),
            WireMsg::ClientReject { seq, reason } => seq.encoded_len() + reason.encoded_len(),
        }
    }
}

impl Decode for WireMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(WireMsg::Hello(ProcessId::decode(buf)?)),
            1 => Ok(WireMsg::Engine(decode_bytes(buf)?)),
            2 => Ok(WireMsg::SyncRequest),
            3 => Ok(WireMsg::SyncVertex(Vertex::decode(buf)?)),
            4 => Ok(WireMsg::SyncEnd { served: u64::decode(buf)? }),
            5 => Ok(WireMsg::BatchRequest { digests: Vec::decode(buf)? }),
            6 => Ok(WireMsg::Batch(Batch::decode(buf)?)),
            9 => Ok(WireMsg::ClientHello),
            10 => {
                Ok(WireMsg::ClientSubmit { seq: u64::decode(buf)?, tx: Transaction::decode(buf)? })
            }
            11 => Ok(WireMsg::ClientSubmitAck { seq: u64::decode(buf)? }),
            12 => Ok(WireMsg::ClientReject {
                seq: u64::decode(buf)?,
                reason: RejectReason::decode(buf)?,
            }),
            13 => Ok(WireMsg::ClientSubscribe),
            14 => Ok(WireMsg::ClientOrdered { seq: u64::decode(buf)? }),
            _ => Err(DecodeError::Invalid("unknown wire message tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagrider_types::{Block, Round, SeqNum, Transaction, VertexBuilder, VertexRef};

    #[test]
    fn every_variant_roundtrips() {
        let vertex = VertexBuilder::new(
            ProcessId::new(2),
            Round::new(3),
            Block::new(ProcessId::new(2), SeqNum::new(1), Vec::new()),
        )
        .strong_edges((0..3).map(|p| VertexRef::new(Round::new(2), ProcessId::new(p))))
        .build_unchecked();
        let batch = Batch::new(
            ProcessId::new(1),
            2,
            vec![Transaction::synthetic(7, 16), Transaction::synthetic(8, 0)],
        );
        let msgs = [
            WireMsg::Hello(ProcessId::new(3)),
            WireMsg::Engine(vec![9, 8, 7]),
            WireMsg::Engine(Vec::new()),
            WireMsg::SyncRequest,
            WireMsg::SyncVertex(vertex),
            WireMsg::SyncEnd { served: 0 },
            WireMsg::SyncEnd { served: u64::MAX },
            WireMsg::BatchRequest { digests: Vec::new() },
            WireMsg::BatchRequest {
                digests: vec![BatchDigest::new([7; 32]), BatchDigest::new([0; 32])],
            },
            WireMsg::Batch(batch),
            WireMsg::Batch(Batch::new(ProcessId::new(0), 0, Vec::new())),
            WireMsg::ClientHello,
            WireMsg::ClientSubmit { seq: 0, tx: Transaction::synthetic(1, 0) },
            WireMsg::ClientSubmit { seq: u64::MAX, tx: Transaction::synthetic(2, 300) },
            WireMsg::ClientSubmitAck { seq: 17 },
            WireMsg::ClientReject { seq: 3, reason: RejectReason::QueueFull },
            WireMsg::ClientReject { seq: 4, reason: RejectReason::Oversized },
            WireMsg::ClientReject { seq: u64::MAX, reason: RejectReason::NotReady },
            WireMsg::ClientSubscribe,
            WireMsg::ClientOrdered { seq: 9 },
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(WireMsg::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn encode_engine_into_matches_the_owned_encoding() {
        for payload in [&[][..], &[1], &[0xab; 500]] {
            let mut fast = Vec::new();
            WireMsg::encode_engine_into(payload, &mut fast);
            assert_eq!(fast, WireMsg::Engine(payload.to_vec()).to_bytes());
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // Tags 7 and 8 are retired: a worker-link handshake or a batch
        // acknowledgement from a peer running older code must not decode
        // as anything.
        for tag in [7, 8, 250] {
            assert_eq!(
                WireMsg::from_bytes(&[tag]),
                Err(DecodeError::Invalid("unknown wire message tag"))
            );
        }
    }

    #[test]
    fn unknown_reject_reason_is_rejected() {
        let mut bytes =
            WireMsg::ClientReject { seq: 1, reason: RejectReason::QueueFull }.to_bytes();
        *bytes.last_mut().unwrap() = 9; // reason code is the final byte
        assert_eq!(
            WireMsg::from_bytes(&bytes),
            Err(DecodeError::Invalid("unknown client reject reason"))
        );
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let bytes = WireMsg::Engine(vec![1, 2, 3, 4]).to_bytes();
        for cut in 0..bytes.len() {
            assert!(WireMsg::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn encode_batch_into_matches_the_owned_encoding() {
        let batch = Batch::new(ProcessId::new(3), 1, vec![Transaction::synthetic(5, 64)]);
        let mut fast = Vec::new();
        WireMsg::encode_batch_into(&batch, &mut fast);
        assert_eq!(fast, WireMsg::Batch(batch).to_bytes());
    }

    mod props {
        use proptest::collection;
        use proptest::prelude::*;

        use super::*;

        /// Deterministically derives a digest from a seed (the codec does
        /// not care that it is not a real hash).
        fn digest_from(seed: u64) -> BatchDigest {
            let mut bytes = [0u8; 32];
            for (i, byte) in bytes.iter_mut().enumerate() {
                *byte = (seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .rotate_left((i % 61) as u32)
                    & 0xff) as u8;
            }
            BatchDigest::new(bytes)
        }

        fn batch_from(creator: u32, worker: u32, ntx: usize, size: usize, tag: u64) -> Batch {
            let txs: Vec<Transaction> = (0..ntx)
                .map(|i| Transaction::synthetic(tag.wrapping_add(i as u64), size))
                .collect();
            Batch::new(ProcessId::new(creator), worker, txs)
        }

        /// One of the batch- or client-layer wire messages, chosen by
        /// `kind`.
        fn msg_from(
            kind: u8,
            creator: u32,
            worker: u32,
            ntx: usize,
            size: usize,
            tag: u64,
        ) -> WireMsg {
            let reason = match tag % 3 {
                0 => RejectReason::QueueFull,
                1 => RejectReason::Oversized,
                _ => RejectReason::NotReady,
            };
            match kind % 8 {
                0 => WireMsg::BatchRequest {
                    digests: (0..ntx).map(|i| digest_from(tag.wrapping_add(i as u64))).collect(),
                },
                1 => WireMsg::Batch(batch_from(creator, worker, ntx, size, tag)),
                2 => WireMsg::ClientHello,
                3 => WireMsg::ClientSubmit { seq: tag, tx: Transaction::synthetic(tag, size) },
                4 => WireMsg::ClientSubmitAck { seq: tag },
                5 => WireMsg::ClientReject { seq: tag, reason },
                6 => WireMsg::ClientSubscribe,
                _ => WireMsg::ClientOrdered { seq: tag },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Round-trip: every batch-layer wire message decodes back to
            /// itself, and `encoded_len` matches the bytes produced.
            #[test]
            fn batch_wire_roundtrip(
                kind in any::<u8>(),
                creator in 0u32..64,
                worker in 0u32..8,
                ntx in 0usize..8,
                size in 0usize..64,
                tag in any::<u64>(),
            ) {
                let msg = msg_from(kind, creator, worker, ntx, size, tag);
                let bytes = msg.to_bytes();
                prop_assert_eq!(bytes.len(), msg.encoded_len());
                prop_assert_eq!(WireMsg::from_bytes(&bytes), Ok(msg));
            }

            /// Strict prefix: no truncation of a valid encoding decodes.
            #[test]
            fn batch_wire_rejects_strict_prefixes(
                kind in any::<u8>(),
                creator in 0u32..64,
                worker in 0u32..8,
                ntx in 0usize..8,
                size in 0usize..64,
                tag in any::<u64>(),
                cut in 0usize..4096,
            ) {
                let msg = msg_from(kind, creator, worker, ntx, size, tag);
                let bytes = msg.to_bytes();
                let cut = cut % bytes.len().max(1);
                prop_assert!(WireMsg::from_bytes(&bytes[..cut]).is_err());
            }

            /// Unknown leading tags never decode, whatever follows them.
            #[test]
            fn unknown_wire_tags_are_rejected(
                raw in any::<u8>(),
                rest in collection::vec(any::<u8>(), 0..64),
            ) {
                // 7 or 8 (retired) or 15..=255 (above every known tag).
                let tag = match raw % 243 {
                    0 => 7,
                    1 => 8,
                    k => 13 + k,
                };
                let mut bytes = vec![tag];
                bytes.extend_from_slice(&rest);
                prop_assert_eq!(
                    WireMsg::from_bytes(&bytes),
                    Err(DecodeError::Invalid("unknown wire message tag"))
                );
            }
        }
    }
}
