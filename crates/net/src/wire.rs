//! The TCP wire envelope.
//!
//! Every frame on a cluster connection carries one [`WireMsg`], encoded
//! with the workspace [`Encode`]/[`Decode`] codec. The envelope separates
//! the transport concerns (identifying the peer, the client protocol)
//! from the opaque engine traffic — broadcasts, coin shares, batches and
//! sync streams — which stays in the exact byte format the sans-I/O
//! engine emits. A peer link carries only `Hello` and `Engine` frames.

use dagrider_types::{
    bytes_encoded_len, decode_bytes, encode_bytes, Decode, DecodeError, Encode, ProcessId,
    Transaction,
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

    #[test]
    fn every_variant_roundtrips() {
        let msgs = [
            WireMsg::Hello(ProcessId::new(3)),
            WireMsg::Engine(vec![9, 8, 7]),
            WireMsg::Engine(Vec::new()),
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
        // Tags 2 to 8 are retired: a sync request, vertex or end, a batch
        // request, a batch, a worker-link handshake or a batch
        // acknowledgement from a peer running older code must not decode
        // as anything. Sync streams and batches travel inside `Engine`
        // frames now.
        for tag in [2, 3, 4, 5, 6, 7, 8, 250] {
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

    mod props {
        use proptest::collection;
        use proptest::prelude::*;

        use super::*;

        /// One of the client-layer wire messages, chosen by `kind`.
        fn msg_from(kind: u8, size: usize, tag: u64) -> WireMsg {
            let reason = match tag % 3 {
                0 => RejectReason::QueueFull,
                1 => RejectReason::Oversized,
                _ => RejectReason::NotReady,
            };
            match kind % 6 {
                0 => WireMsg::ClientHello,
                1 => WireMsg::ClientSubmit { seq: tag, tx: Transaction::synthetic(tag, size) },
                2 => WireMsg::ClientSubmitAck { seq: tag },
                3 => WireMsg::ClientReject { seq: tag, reason },
                4 => WireMsg::ClientSubscribe,
                _ => WireMsg::ClientOrdered { seq: tag },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Round-trip: every client-layer wire message decodes back to
            /// itself, and `encoded_len` matches the bytes produced.
            #[test]
            fn client_wire_roundtrip(
                kind in any::<u8>(),
                size in 0usize..64,
                tag in any::<u64>(),
            ) {
                let msg = msg_from(kind, size, tag);
                let bytes = msg.to_bytes();
                prop_assert_eq!(bytes.len(), msg.encoded_len());
                prop_assert_eq!(WireMsg::from_bytes(&bytes), Ok(msg));
            }

            /// Strict prefix: no truncation of a valid encoding decodes.
            #[test]
            fn client_wire_rejects_strict_prefixes(
                kind in any::<u8>(),
                size in 0usize..64,
                tag in any::<u64>(),
                cut in 0usize..4096,
            ) {
                let msg = msg_from(kind, size, tag);
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
                // 2 to 8 (retired) or 15..=255 (above every known tag).
                let tag = match raw % 248 {
                    k @ 0..=6 => 2 + k,
                    k => 8 + k,
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
