//! Property tests for the pooled frame encoder: for **every** wire-level
//! message shape — each [`WireMsg`] variant, and each [`NodeMessage`]
//! variant travelling inside the `Engine` envelope — encoding through a
//! [`FramePool`] (including recycled buffers, which must not leak stale
//! bytes) is byte-identical to the plain [`Encode`] codec, both in the
//! payload and in the `[u32-LE length | payload]` wire image.

use dagrider_core::NodeMessage;
use dagrider_crypto::{deal_coin_keys, Coin, CoinShare};
use dagrider_net::{FramePool, WireMsg};
use dagrider_rbc::{BrachaKind, BrachaMessage};
use dagrider_types::{
    Block, Committee, Encode, ProcessId, Round, SeqNum, Transaction, Vertex, VertexBuilder,
    VertexRef,
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
/// come from the issuing process's own keys — like on the wire).
fn make_share(issuer_index: usize, instance: u64, seed: u64) -> CoinShare {
    use rand::{rngs::StdRng, SeedableRng};
    let committee = Committee::new(4).expect("4 is a valid committee size");
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    let mut coin = Coin::new(keys.into_iter().nth(issuer_index % 4).expect("n = 4 keys dealt"));
    coin.my_share(instance, &mut rng)
}

/// A structurally plausible vertex with `strong` strong edges and an
/// optional weak edge, carrying `txs` synthetic transactions.
fn make_vertex(source: u32, round: u64, strong: u32, weak: bool, txs: u8) -> Vertex {
    let transactions =
        (0..txs).map(|i| Transaction::synthetic(u64::from(i), 24)).collect::<Vec<_>>();
    let block = Block::new(ProcessId::new(source), SeqNum::new(1), transactions);
    let mut builder = VertexBuilder::new(ProcessId::new(source), Round::new(round), block)
        .strong_edges(
            (0..strong)
                .map(|p| VertexRef::new(Round::new(round.saturating_sub(1)), ProcessId::new(p))),
        );
    if weak && round >= 2 {
        builder =
            builder.weak_edges([VertexRef::new(Round::new(round - 2), ProcessId::new(strong + 1))]);
    }
    builder.build_unchecked()
}

/// Asserts that a pooled encode of `msg` matches the plain codec exactly,
/// payload and wire image both.
fn assert_pooled_matches(pool: &FramePool, msg: &WireMsg) {
    let reference = msg.to_bytes();
    let frame = pool.encode(msg);
    assert_eq!(frame.payload(), &reference[..]);
    let mut wire =
        u32::try_from(reference.len()).expect("test payloads fit u32").to_le_bytes().to_vec();
    wire.extend_from_slice(&reference);
    assert_eq!(frame.wire_bytes(), &wire[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every `WireMsg` variant, encoded twice through the same pool so
    /// the second encode runs on a recycled buffer.
    #[test]
    fn every_wire_msg_variant_pooled_encode_matches_codec(
        peer in 0u32..1_000,
        engine_payload in proptest::collection::vec(any::<u8>(), 0..512),
        served in any::<u64>(),
        source in 0u32..8,
        round in 1u64..1_000,
        strong in 0u32..8,
        weak in any::<bool>(),
        txs in 0u8..4,
    ) {
        let pool = FramePool::new();
        let vertex = make_vertex(source, round, strong, weak, txs);
        let msgs = [
            WireMsg::Hello(ProcessId::new(peer)),
            WireMsg::Engine(engine_payload),
            WireMsg::Engine(NodeMessage::<BrachaMessage>::SyncVertex(vertex).to_bytes()),
            WireMsg::Engine(NodeMessage::<BrachaMessage>::SyncEnd { served }.to_bytes()),
        ];
        for msg in &msgs {
            // First pass allocates; dropping the frame recycles its
            // buffer, so the second pass must overwrite stale bytes.
            assert_pooled_matches(&pool, msg);
            assert_pooled_matches(&pool, msg);
        }
        // Cross-contamination check: encode the longest, then each other
        // message on the recycled (larger) buffer.
        let longest = msgs.iter().max_by_key(|m| m.encoded_len()).expect("non-empty");
        drop(pool.encode(longest));
        for msg in &msgs {
            assert_pooled_matches(&pool, msg);
        }
    }

    /// Every `NodeMessage` variant through the zero-copy Engine path:
    /// `encode_engine_into` on a pooled buffer versus the owned
    /// `WireMsg::Engine(vec)` encoding.
    #[test]
    fn every_node_message_variant_engine_fast_path_matches_codec(
        phase in 0u8..3,
        source in 0u32..1_000,
        round in 0u64..1_000_000,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        issuer in 0usize..4,
        instance in 0u64..10_000,
        seed in 0u64..1_000,
    ) {
        let pool = FramePool::new();
        let msgs = [
            NodeMessage::Rbc(make_rbc(phase, source, round, payload)),
            NodeMessage::<BrachaMessage>::Coin(make_share(issuer, instance, seed)),
        ];
        for msg in &msgs {
            let engine_bytes = msg.to_bytes();
            let reference = WireMsg::Engine(engine_bytes.clone()).to_bytes();
            for _ in 0..2 {
                let frame =
                    pool.encode_with(|buf| WireMsg::encode_engine_into(&engine_bytes, buf));
                prop_assert_eq!(frame.payload(), &reference[..]);
            }
        }
    }
}
