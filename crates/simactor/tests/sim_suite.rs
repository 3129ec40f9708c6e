//! The pre-refactor `DagRiderNode` simulation suite, running unchanged
//! through the [`SimActor`](dagrider_simactor::SimActor) adapter — the
//! behavior-preservation proof for the sans-I/O engine extraction.

use std::collections::BTreeMap;

use dagrider_core::{batch_digest, EngineInput, NodeConfig};
use dagrider_crypto::deal_coin_keys;
use dagrider_rbc::{AvidRbc, BrachaRbc, ProbabilisticRbc, ReliableBroadcast};
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Simulation, UniformScheduler};
use dagrider_trace::TraceEvent;
use dagrider_types::{Batch, Block, Committee, ProcessId, Round, SeqNum, Time, Transaction, Wave};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_sim<B: ReliableBroadcast>(
    n: usize,
    seed: u64,
    max_round: u64,
) -> Simulation<DagRiderNode<B>, UniformScheduler> {
    let committee = Committee::new(n).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(max_round);
    let nodes = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::<B>::new(committee, p, k, config.clone()))
        .collect();
    Simulation::new(committee, nodes, UniformScheduler::new(1, 10), seed)
}

fn assert_total_order<B: ReliableBroadcast>(sim: &Simulation<DagRiderNode<B>, UniformScheduler>) {
    let committee = sim.committee();
    let logs: Vec<Vec<_>> = committee
        .members()
        .map(|p| sim.actor(p).ordered().iter().map(|o| o.vertex).collect())
        .collect();
    // Total order: every pair of logs must be prefix-comparable.
    for (i, a) in logs.iter().enumerate() {
        for b in logs.iter().skip(i + 1) {
            let common = a.len().min(b.len());
            assert_eq!(&a[..common], &b[..common], "logs diverge");
        }
    }
}

#[test]
fn bracha_stack_reaches_agreement() {
    let sim = {
        let mut s = build_sim::<BrachaRbc>(4, 11, 24);
        s.run();
        s
    };
    assert_total_order(&sim);
    let min_len = sim.committee().members().map(|p| sim.actor(p).ordered().len()).min().unwrap();
    assert!(min_len > 0, "at least one wave must commit");
    assert!(sim.actor(ProcessId::new(0)).decided_wave() >= Wave::new(1));
}

#[test]
fn avid_stack_reaches_agreement() {
    let mut sim = build_sim::<AvidRbc>(4, 13, 24);
    sim.run();
    assert_total_order(&sim);
    assert!(!sim.actor(ProcessId::new(0)).ordered().is_empty());
}

#[test]
fn probabilistic_stack_reaches_agreement() {
    let mut sim = build_sim::<ProbabilisticRbc>(4, 17, 24);
    sim.run();
    assert_total_order(&sim);
}

#[test]
fn client_blocks_ride_the_dag() {
    let mut sim = build_sim::<BrachaRbc>(4, 19, 24);
    let tx = Transaction::synthetic(99, 32);
    let block = Block::new(ProcessId::new(2), SeqNum::new(1), vec![tx.clone()]);
    sim.actor_mut(ProcessId::new(2)).a_bcast(block);
    sim.run();
    // The block is ordered at every process.
    for p in sim.committee().members() {
        let found = sim.actor(p).ordered().iter().any(|o| o.block.transactions().contains(&tx));
        assert!(found, "{p} did not order the client block");
    }
}

#[test]
fn seeds_change_schedules_but_never_order() {
    for seed in [1u64, 2, 3] {
        let mut sim = build_sim::<BrachaRbc>(4, seed, 16);
        sim.run();
        assert_total_order(&sim);
    }
}

#[test]
fn larger_committee_commits() {
    let mut sim = build_sim::<BrachaRbc>(7, 23, 16);
    sim.run();
    assert_total_order(&sim);
    assert!(sim.actor(ProcessId::new(0)).decided_wave() >= Wave::new(1));
}

#[test]
fn piggybacked_coin_commits_without_dedicated_share_messages() {
    // §5 footnote 1: shares ride the DAG. The protocol must still commit,
    // and (except for the end-of-run flush) no NodeMessage::Coin traffic
    // is needed.
    let committee = Committee::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(24).with_piggyback_coin();
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 41);
    sim.run();
    assert_total_order(&sim);
    for p in committee.members() {
        assert!(
            sim.actor(p).decided_wave() >= Wave::new(4),
            "{p} only decided {}",
            sim.actor(p).decided_wave()
        );
    }
}

#[test]
fn piggyback_and_dedicated_modes_agree_on_message_overhead() {
    // Piggybacking removes the n·(n-1) dedicated share messages per wave
    // (minus the end-of-run flush).
    let run = |piggyback: bool| {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let keys = deal_coin_keys(&committee, &mut rng);
        let mut config = NodeConfig::default().with_max_round(20);
        config.piggyback_coin = piggyback;
        let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
            .members()
            .zip(keys)
            .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
            .collect();
        let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 43);
        sim.run();
        (sim.metrics().messages_sent(), sim.actor(ProcessId::new(0)).decided_wave())
    };
    let (dedicated_msgs, dedicated_wave) = run(false);
    let (piggyback_msgs, piggyback_wave) = run(true);
    assert!(piggyback_msgs < dedicated_msgs, "{piggyback_msgs} !< {dedicated_msgs}");
    assert!(dedicated_wave >= Wave::new(3) && piggyback_wave >= Wave::new(3));
}

#[test]
fn garbage_collection_prunes_without_breaking_order() {
    let committee = Committee::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(47);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(40).with_gc_depth(8);
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 47);
    sim.run();
    assert_total_order(&sim);
    for p in committee.members() {
        let node = sim.actor(p);
        assert!(node.vertices_pruned() > 0, "{p} never pruned anything");
        assert!(node.dag().pruned_floor() > Round::new(1), "{p}'s GC floor never advanced");
        // Ordered output is unaffected: a 40-round run still orders nearly
        // everything.
        assert!(node.ordered().len() > 100, "{p} ordered {}", node.ordered().len());
    }
    // And the retained DAG is small: at most gc_depth + in-flight rounds
    // of vertices plus genesis.
    let node = sim.actor(ProcessId::new(0));
    assert!(node.dag().len() < 4 * 24, "GC left {} vertices in the DAG", node.dag().len());
}

#[test]
fn gc_and_piggyback_compose() {
    let committee = Committee::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(53);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(32).with_gc_depth(8).with_piggyback_coin();
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 53);
    sim.run();
    assert_total_order(&sim);
    assert!(sim.actor(ProcessId::new(2)).decided_wave() >= Wave::new(5));
}

#[test]
fn own_vertex_latencies_are_positive_and_cover_ordered_vertices() {
    let mut sim = build_sim::<BrachaRbc>(4, 31, 20);
    sim.run();
    for p in sim.committee().members() {
        let node = sim.actor(p);
        let latencies = node.own_vertex_latencies();
        let own_ordered = node.ordered().iter().filter(|o| o.vertex.source == p).count();
        assert_eq!(latencies.len(), own_ordered, "{p}: every own ordered vertex measured");
        assert!(latencies.iter().all(|&(_, l)| l > 0), "{p}: zero-latency commit?");
        // (Rounds are *not* necessarily monotone in the log: a weak-edge
        // orphan can be delivered by a later wave than a younger vertex.
        // Each round appears at most once, though.)
        let mut rounds: Vec<_> = latencies.iter().map(|&(r, _)| r).collect();
        rounds.sort();
        rounds.dedup();
        assert_eq!(rounds.len(), latencies.len());
    }
}

#[test]
fn commit_latency_is_recorded() {
    let mut sim = build_sim::<BrachaRbc>(4, 29, 24);
    sim.run();
    let node = sim.actor(ProcessId::new(1));
    for window in node.ordered().windows(2) {
        assert!(window[0].delivered_at <= window[1].delivered_at);
    }
    assert!(!node.commits().is_empty());
}

/// Events a 12-round run of four processes takes with room to spare; a
/// run still busy after this many never goes idle.
const IDLE_BOUND: u64 = 200_000;

/// Runs `sim` for at most [`IDLE_BOUND`] events and asserts that it went
/// idle, then that every process ordered the same vertices with the same
/// payloads.
fn assert_idle_with_identical_logs(
    sim: &mut Simulation<DagRiderNode<BrachaRbc>, UniformScheduler>,
) {
    sim.run_until(IDLE_BOUND, |_| false);
    assert!(!sim.step(), "the run never went idle");
    let committee = sim.committee();
    let reference = sim.actor(ProcessId::new(0)).ordered();
    assert!(!reference.is_empty());
    for p in committee.members() {
        let log = sim.actor(p).ordered();
        let pairs = |log: &[dagrider_core::OrderedVertex]| -> Vec<(_, Block)> {
            log.iter().map(|o| (o.vertex, o.block.clone())).collect()
        };
        assert_eq!(pairs(log), pairs(reference), "{p} ordered a different sequence or payloads");
    }
}

/// Each process proposes the digest of its own pre-staged batch, and p3
/// lacks p0's. p3 fetches it over the simulated network, from p0 first,
/// and the run goes idle with every log equal, payloads included.
#[test]
fn a_missing_batch_is_fetched_over_the_simulated_network() {
    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(53));
    let config = NodeConfig::default().with_max_round(12);
    let batches: Vec<Batch> = committee
        .members()
        .map(|p| Batch::new(p, 0, vec![Transaction::synthetic(5_300 + u64::from(p.index()), 32)]))
        .collect();
    let (p0, p3) = (ProcessId::new(0), ProcessId::new(3));
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| {
            let mut node = DagRiderNode::new(committee, p, k, config.clone()).with_trace(1 << 14);
            for batch in &batches {
                if p != p3 || batch.creator() != p0 {
                    node.store_batch(batch.clone());
                }
            }
            node.enqueue_digests(vec![batch_digest(&batches[p.as_usize()])]);
            node
        })
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 53);
    assert_idle_with_identical_logs(&mut sim);

    let asked: Vec<ProcessId> = sim
        .actor(p3)
        .trace_records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::BatchFetchRequested { from, .. } => Some(from),
            _ => None,
        })
        .collect();
    assert_eq!(asked.first(), Some(&p0), "p3's first request must ask the proposer: {asked:?}");
    for p in committee.members() {
        let ordered = sim
            .actor(p)
            .ordered()
            .iter()
            .any(|o| o.block.transactions() == batches[p0.as_usize()].transactions());
        assert!(ordered, "{p} never ordered p0's batch");
    }
}

/// Transactions handed to each engine's open batch before the run seal
/// into the round-1 vertices, travel to the peers as messages, and are
/// each ordered exactly once everywhere.
#[test]
fn transactions_sealed_at_start_travel_as_messages_and_order_once() {
    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(59));
    let config = NodeConfig::default().with_max_round(12);
    let txs_of = |p: ProcessId| -> Vec<Transaction> {
        (0..3).map(|i| Transaction::synthetic(u64::from(p.index()) * 100 + i, 64)).collect()
    };
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| {
            let mut node = DagRiderNode::new(committee, p, k, config.clone());
            let input = EngineInput::SubmitTransactions(txs_of(p));
            let turn = node.handle(Time::ZERO, input, &mut StdRng::seed_from_u64(0));
            assert!(turn.outputs.is_empty(), "an underfull batch waits for the round-1 vertex");
            node
        })
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 59);
    assert_idle_with_identical_logs(&mut sim);

    for p in committee.members() {
        let mut counts: BTreeMap<Transaction, usize> = BTreeMap::new();
        for ordered in sim.actor(p).ordered() {
            for tx in ordered.block.transactions() {
                *counts.entry(tx.clone()).or_insert(0) += 1;
            }
        }
        let submitted: Vec<Transaction> = committee.members().flat_map(txs_of).collect();
        assert_eq!(counts.len(), submitted.len(), "{p} ordered {counts:?}");
        for tx in &submitted {
            assert_eq!(counts.get(tx), Some(&1), "{p} ordered a transaction other than once");
        }
    }
}
