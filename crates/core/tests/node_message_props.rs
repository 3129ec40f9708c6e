//! Property tests for the [`NodeMessage`] wire envelope — the bytes of
//! every engine message: broadcast traffic, coin shares, batches, batch
//! requests and sync streams. Every representable message round-trips exactly,
//! unknown envelope tags are rejected, and no truncation of a valid
//! encoding decodes (so a cut TCP frame can never be mistaken for a
//! shorter valid message).

use dagrider_core::NodeMessage;
use dagrider_crypto::{deal_coin_keys, Coin, CoinShare};
use dagrider_rbc::{BrachaKind, BrachaMessage};
use dagrider_types::{
    Batch, BatchDigest, Block, Committee, Decode, DecodeError, Encode, ProcessId, Round, SeqNum,
    Transaction, Vertex, VertexBuilder, VertexRef,
};
use proptest::prelude::*;

/// Expands integers into a [`BrachaMessage`] covering all three phases.
fn make_rbc(phase: u8, source: u32, round: u64, payload: Vec<u8>) -> BrachaMessage {
    let kind = match phase % 3 {
        0 => BrachaKind::Init(payload),
        1 => BrachaKind::Echo(payload),
        _ => BrachaKind::Ready(payload),
    };
    BrachaMessage { source: ProcessId::new(source), round: Round::new(round), kind }
}

/// A real threshold-coin share (fields are private by design, so shares
/// are produced by the issuing process's own keys — like on the wire).
fn make_share(issuer_index: usize, instance: u64, seed: u64) -> CoinShare {
    use rand::{rngs::StdRng, SeedableRng};
    let committee = Committee::new(4).expect("4 is a valid committee size");
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    let mut coin = Coin::new(keys.into_iter().nth(issuer_index % 4).expect("n = 4 keys dealt"));
    coin.my_share(instance, &mut rng)
}

/// A batch of `ntx` synthetic transactions of `size` bytes each.
fn make_batch(creator: u32, worker: u32, ntx: usize, size: usize, tag: u64) -> Batch {
    let txs: Vec<Transaction> =
        (0..ntx).map(|i| Transaction::synthetic(tag.wrapping_add(i as u64), size)).collect();
    Batch::new(ProcessId::new(creator), worker, txs)
}

/// A digest list, one digest per seed byte.
fn make_digests(seeds: &[u8]) -> Vec<BatchDigest> {
    seeds.iter().map(|&seed| BatchDigest::new([seed; 32])).collect()
}

/// A vertex of `source` in `round` with `strong` strong edges into the
/// round before, an optional weak edge, and `txs` transactions.
fn make_vertex(source: u32, round: u64, strong: u32, weak: bool, txs: u8) -> Vertex {
    let transactions: Vec<Transaction> =
        (0..txs).map(|i| Transaction::synthetic(u64::from(i), 24)).collect();
    let block = Block::new(ProcessId::new(source), SeqNum::new(1), transactions);
    let previous = Round::new(round.saturating_sub(1));
    let mut builder = VertexBuilder::new(ProcessId::new(source), Round::new(round), block)
        .strong_edges((0..strong).map(|p| VertexRef::new(previous, ProcessId::new(p))));
    if weak && round >= 2 {
        builder = builder.weak_edges([VertexRef::new(Round::new(round - 2), ProcessId::new(0))]);
    }
    builder.build_unchecked()
}

/// One of the three sync messages, chosen by `kind`.
fn make_sync(kind: u8, vertex: Vertex, served: u64) -> NodeMessage<BrachaMessage> {
    match kind % 3 {
        0 => NodeMessage::SyncRequest,
        1 => NodeMessage::SyncVertex(vertex),
        _ => NodeMessage::SyncEnd { served },
    }
}

/// Asserts that no strict prefix of `bytes` decodes.
fn assert_no_prefix_decodes(bytes: &[u8]) {
    for cut in 0..bytes.len() {
        assert!(
            NodeMessage::<BrachaMessage>::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} of {} decoded",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rbc_messages_roundtrip(
        phase in 0u8..3,
        source in 0u32..1_000,
        round in 0u64..1_000_000,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let msg = NodeMessage::Rbc(make_rbc(phase, source, round, payload));
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(NodeMessage::<BrachaMessage>::from_bytes(&bytes).expect("roundtrip"), msg);
    }

    #[test]
    fn coin_shares_roundtrip(
        issuer in 0usize..4,
        instance in 0u64..10_000,
        seed in 0u64..1_000,
    ) {
        let msg = NodeMessage::<BrachaMessage>::Coin(make_share(issuer, instance, seed));
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(NodeMessage::<BrachaMessage>::from_bytes(&bytes).expect("roundtrip"), msg);
    }

    #[test]
    fn batches_roundtrip(
        creator in 0u32..64,
        worker in 0u32..8,
        ntx in 0usize..8,
        size in 0usize..256,
        tag in any::<u64>(),
    ) {
        let msg = NodeMessage::<BrachaMessage>::Batch(make_batch(creator, worker, ntx, size, tag));
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(NodeMessage::<BrachaMessage>::from_bytes(&bytes).expect("roundtrip"), msg);
    }

    #[test]
    fn batch_requests_roundtrip(seeds in proptest::collection::vec(any::<u8>(), 0..16)) {
        let msg = NodeMessage::<BrachaMessage>::BatchRequest(make_digests(&seeds));
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(NodeMessage::<BrachaMessage>::from_bytes(&bytes).expect("roundtrip"), msg);
    }

    #[test]
    fn sync_messages_roundtrip(
        kind in 0u8..3,
        source in 0u32..64,
        round in 1u64..1_000_000,
        strong in 0u32..8,
        weak in any::<bool>(),
        txs in 0u8..4,
        served in any::<u64>(),
    ) {
        let msg = make_sync(kind, make_vertex(source, round, strong, weak, txs), served);
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(NodeMessage::<BrachaMessage>::from_bytes(&bytes).expect("roundtrip"), msg);
    }

    #[test]
    fn unknown_envelope_tags_are_rejected(
        tag in 7u8..=255,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = vec![tag];
        bytes.extend(tail);
        prop_assert_eq!(
            NodeMessage::<BrachaMessage>::from_bytes(&bytes),
            Err(DecodeError::Invalid("unknown node message tag"))
        );
    }

    #[test]
    fn no_strict_prefix_of_an_rbc_message_decodes(
        phase in 0u8..3,
        source in 0u32..1_000,
        round in 0u64..1_000_000,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let bytes = NodeMessage::Rbc(make_rbc(phase, source, round, payload)).to_bytes();
        assert_no_prefix_decodes(&bytes);
    }

    #[test]
    fn no_strict_prefix_of_a_coin_share_decodes(
        issuer in 0usize..4,
        instance in 0u64..10_000,
    ) {
        let bytes = NodeMessage::<BrachaMessage>::Coin(make_share(issuer, instance, 7)).to_bytes();
        assert_no_prefix_decodes(&bytes);
    }

    #[test]
    fn no_strict_prefix_of_a_batch_decodes(
        creator in 0u32..64,
        ntx in 0usize..4,
        size in 0usize..64,
        tag in any::<u64>(),
    ) {
        let batch = make_batch(creator, 0, ntx, size, tag);
        assert_no_prefix_decodes(&NodeMessage::<BrachaMessage>::Batch(batch).to_bytes());
    }

    #[test]
    fn no_strict_prefix_of_a_batch_request_decodes(
        seeds in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let request = NodeMessage::<BrachaMessage>::BatchRequest(make_digests(&seeds));
        assert_no_prefix_decodes(&request.to_bytes());
    }

    #[test]
    fn no_strict_prefix_of_a_sync_message_decodes(
        kind in 0u8..3,
        round in 1u64..1_000,
        strong in 0u32..4,
        txs in 0u8..3,
        served in any::<u64>(),
    ) {
        let msg = make_sync(kind, make_vertex(1, round, strong, true, txs), served);
        assert_no_prefix_decodes(&msg.to_bytes());
    }
}
