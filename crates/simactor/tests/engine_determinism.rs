//! Engine determinism: the same recorded [`EngineInput`] sequence — with
//! the same clock readings and the same RNG stream — must produce a
//! byte-identical [`EngineOutput`] stream, an identical event stream, and
//! an identical ordered log, whether the inputs originally came from a
//! direct harness or from the simulator driving the `SimActor` adapter.
//! This is the property that makes offline replay debugging of the TCP
//! runtime possible.

use std::collections::VecDeque;

use dagrider_core::{
    DagRiderEngine, EngineEvent, EngineInput, EngineOutput, NodeConfig, NodeMessage, OrderedVertex,
    Turn, VerifiedInput,
};
use dagrider_crypto::{deal_coin_keys, Sha256};
use dagrider_rbc::{BrachaMessage, BrachaRbc, ReliableBroadcast};
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{
    process_seed, Actor, Context, Simulation, TargetedScheduler, UniformScheduler,
};
use dagrider_trace::TraceEvent;
use dagrider_types::{encode_bytes, Committee, Decode, Encode, ProcessId, Round, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One engine call as a driver saw it: the clock reading, the input
/// (`None` for `start`), and the turn the engine returned.
type Record = (Time, Option<EngineInput>, Turn);

/// Makes one engine call and keeps its record.
fn call<B: ReliableBroadcast>(
    engine: &mut DagRiderEngine<B>,
    at: Time,
    input: Option<EngineInput>,
    rng: &mut StdRng,
    log: &mut Vec<Record>,
) -> Turn {
    let turn = match input.clone() {
        None => engine.start(at, rng),
        Some(input) => engine.handle(at, input, rng),
    };
    log.push((at, input, turn.clone()));
    turn
}

/// The `Ordered` outputs among `outputs`, in order: the log a driver
/// keeps.
fn ordered_in<'a>(outputs: impl IntoIterator<Item = &'a EngineOutput>) -> Vec<OrderedVertex> {
    outputs
        .into_iter()
        .filter_map(|out| match out {
            EngineOutput::Ordered(o) => Some(o.clone()),
            _ => None,
        })
        .collect()
}

/// The ordered log of a call record.
fn ordered_log(log: &[Record]) -> Vec<OrderedVertex> {
    ordered_in(log.iter().flat_map(|(_, _, turn)| &turn.outputs))
}

/// Replays the calls of `log` into `engine`, drawing randomness from
/// `rng`, and returns the records of the replay.
fn replay<B: ReliableBroadcast>(
    engine: &mut DagRiderEngine<B>,
    log: &[Record],
    rng: &mut StdRng,
) -> Vec<Record> {
    let mut replayed = Vec::new();
    for (at, input, _) in log {
        call(engine, *at, input.clone(), rng, &mut replayed);
    }
    replayed
}

/// A [`DagRiderNode`] driven exactly as the simulator drives it, keeping
/// the record of every engine call it makes.
struct Recorder {
    node: DagRiderNode<BrachaRbc>,
    log: Vec<Record>,
}

impl Recorder {
    fn call(&mut self, input: Option<EngineInput>, ctx: &mut Context<'_>) {
        let turn = call(self.node.engine_mut(), ctx.now(), input, ctx.rng(), &mut self.log);
        self.node.apply(turn, ctx);
    }
}

impl Actor for Recorder {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.call(None, ctx);
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        self.call(Some(EngineInput::Message { from, payload: payload.to_vec() }), ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        self.call(Some(EngineInput::Timer { tag }), ctx);
    }
}

#[test]
fn direct_harness_run_replays_byte_identically() {
    let committee = Committee::new(4).unwrap();
    let mut key_rng = StdRng::seed_from_u64(71);
    let keys = deal_coin_keys(&committee, &mut key_rng);
    let config = NodeConfig::default().with_max_round(16);
    let mut engines: Vec<DagRiderEngine<BrachaRbc>> = committee
        .members()
        .zip(keys.clone())
        .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
        .collect();
    let mut logs: Vec<Vec<Record>> = vec![Vec::new(); 4];
    let mut rngs: Vec<StdRng> = (0..4).map(|i| StdRng::seed_from_u64(500 + i)).collect();

    // Drive to quiescence over an instant FIFO wire.
    let mut wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)> = VecDeque::new();
    let route = |from: ProcessId,
                 outs: &[EngineOutput],
                 wire: &mut VecDeque<(ProcessId, ProcessId, Vec<u8>)>| {
        for out in outs {
            match out {
                EngineOutput::Send { to, payload } => {
                    wire.push_back((from, *to, payload.to_vec()));
                }
                EngineOutput::Broadcast { payload } => {
                    for to in committee.others(from) {
                        wire.push_back((from, to, payload.to_vec()));
                    }
                }
                EngineOutput::SetTimer { .. }
                | EngineOutput::Ordered(_)
                | EngineOutput::FetchBatches { .. } => {}
            }
        }
    };
    for p in committee.members() {
        let i = p.as_usize();
        let turn = call(&mut engines[i], Time::ZERO, None, &mut rngs[i], &mut logs[i]);
        route(p, &turn.outputs, &mut wire);
    }
    let mut t = 0u64;
    while let Some((from, to, payload)) = wire.pop_front() {
        t += 1;
        let i = to.as_usize();
        let input = EngineInput::Message { from, payload };
        let turn = call(&mut engines[i], Time::new(t), Some(input), &mut rngs[i], &mut logs[i]);
        route(to, &turn.outputs, &mut wire);
    }

    // Replay each engine's recorded inputs into a fresh engine with an
    // identically seeded RNG: the full call record — outputs and events
    // included — must be byte-identical, and so must the ordered log.
    for p in committee.members() {
        let i = p.as_usize();
        assert!(!logs[i].is_empty());
        let mut fresh: DagRiderEngine<BrachaRbc> =
            DagRiderEngine::new(committee, p, keys[i].clone(), config.clone());
        let mut fresh_rng = StdRng::seed_from_u64(500 + i as u64);
        let replayed = replay(&mut fresh, &logs[i], &mut fresh_rng);
        assert_eq!(replayed, logs[i], "{p}: I/O streams diverge on replay");
        assert_eq!(ordered_log(&replayed), ordered_log(&logs[i]), "{p}: ordered logs diverge");
        assert_eq!(fresh.decided_wave(), engines[i].decided_wave());
    }
}

#[test]
#[allow(clippy::type_complexity)] // the `submit` injector's signature is the test's whole point
fn digest_payloads_order_identically_to_inline_payloads() {
    // Decoupling data from consensus must not change consensus: a
    // cluster whose processes propose digest-list payloads (batches
    // pre-stored everywhere, as after worker dissemination) must order
    // the same vertex sequence as one proposing the same transactions
    // inline — and resolve each delivery to the same transactions.
    use dagrider_core::batch_digest;
    use dagrider_types::{Batch, Block, SeqNum, Transaction};

    let committee = Committee::new(4).unwrap();
    let mut key_rng = StdRng::seed_from_u64(313);
    let keys = deal_coin_keys(&committee, &mut key_rng);
    let config = NodeConfig::default().with_max_round(16);
    let txs_of = |p: ProcessId| -> Vec<Transaction> {
        vec![Transaction::synthetic(40 + p.as_usize() as u64, 32)]
    };

    // Runs a 4-engine FIFO-wire cluster to quiescence; `submit` injects
    // each process's payload before start.
    let run = |submit: &dyn Fn(
        &mut DagRiderEngine<BrachaRbc>,
        ProcessId,
        &mut StdRng,
    ) -> Vec<EngineOutput>| {
        let mut fetches_sent = vec![0u64; 4];
        let mut ordered: Vec<Vec<OrderedVertex>> = vec![Vec::new(); 4];
        let mut engines: Vec<DagRiderEngine<BrachaRbc>> = committee
            .members()
            .zip(keys.clone())
            .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
            .collect();
        let mut rngs: Vec<StdRng> = (0..4).map(|i| StdRng::seed_from_u64(700 + i)).collect();
        let mut wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)> = VecDeque::new();
        let mut route =
            |from: ProcessId,
             outs: &[EngineOutput],
             wire: &mut VecDeque<(ProcessId, ProcessId, Vec<u8>)>| {
                for out in outs {
                    match out {
                        EngineOutput::Send { to, payload } => {
                            wire.push_back((from, *to, payload.to_vec()));
                        }
                        EngineOutput::Broadcast { payload } => {
                            for to in committee.others(from) {
                                wire.push_back((from, to, payload.to_vec()));
                            }
                        }
                        EngineOutput::FetchBatches { .. } => fetches_sent[from.as_usize()] += 1,
                        EngineOutput::Ordered(o) => ordered[from.as_usize()].push(o.clone()),
                        EngineOutput::SetTimer { .. } => {}
                    }
                }
            };
        for p in committee.members() {
            // Pre-start submissions self-start the engine (the first
            // proposal fires off the genesis quorum), so collect their
            // outputs too and only call start() if it is still pending —
            // the same gate the TCP runtime applies after sync.
            let outs = submit(&mut engines[p.as_usize()], p, &mut rngs[p.as_usize()]);
            route(p, &outs, &mut wire);
            if engines[p.as_usize()].current_round() == dagrider_types::Round::GENESIS
                && !engines[p.as_usize()].is_started()
            {
                let outs = engines[p.as_usize()].start(Time::ZERO, &mut rngs[p.as_usize()]).outputs;
                route(p, &outs, &mut wire);
            }
        }
        let mut t = 0u64;
        while let Some((from, to, payload)) = wire.pop_front() {
            t += 1;
            let outs = engines[to.as_usize()]
                .handle(
                    Time::new(t),
                    EngineInput::Message { from, payload },
                    &mut rngs[to.as_usize()],
                )
                .outputs;
            route(to, &outs, &mut wire);
        }
        (engines, ordered, fetches_sent)
    };

    // Inline: each process proposes its transactions as a block.
    let (inline, inline_ordered, _) = run(&|engine, p, rng| {
        let block = Block::new(p, SeqNum::new(1), txs_of(p));
        engine.handle(Time::ZERO, EngineInput::SubmitBlock(block), rng).outputs
    });
    // Digest: every batch is pre-stored on every engine (the post-
    // dissemination state), then each process proposes its digest.
    let batches: Vec<Batch> = committee.members().map(|p| Batch::new(p, 0, txs_of(p))).collect();
    let (digest, digest_ordered, digest_fetches) = run(&|engine, p, rng| {
        let mut outs = Vec::new();
        for batch in &batches {
            let input = EngineInput::BatchStored(batch.clone());
            outs.extend(engine.handle(Time::ZERO, input, rng).outputs);
        }
        let digest = batch_digest(&batches[p.as_usize()]);
        outs.extend(
            engine.handle(Time::ZERO, EngineInput::SubmitDigests(vec![digest]), rng).outputs,
        );
        outs
    });

    for p in committee.members() {
        let i = p.as_usize();
        let (a, b) = (&inline_ordered[i], &digest_ordered[i]);
        assert!(!a.is_empty(), "{p}: inline cluster ordered nothing");
        assert_eq!(a.len(), b.len(), "{p}: ordered log lengths diverge");
        for (ea, eb) in a.iter().zip(b.iter()) {
            assert_eq!(ea.vertex, eb.vertex, "{p}: vertex order diverges");
            assert_eq!(ea.committed_in_wave, eb.committed_in_wave, "{p}: wave diverges");
            assert_eq!(
                ea.block.transactions(),
                eb.block.transactions(),
                "{p}: resolved transactions diverge at {:?}",
                ea.vertex
            );
        }
        assert_eq!(inline[i].decided_wave(), digest[i].decided_wave());
        assert_eq!(digest_fetches[i], 0, "{p}: pre-stored batches must never fetch");
    }
}

#[test]
fn sim_recorded_inputs_replay_identically_through_a_direct_harness() {
    // Record through the SimActor adapter, replay through bare handle()
    // calls: the adapter adds no protocol logic, so the engine cannot tell
    // the difference.
    let committee = Committee::new(4).unwrap();
    let seed = 97u64;
    let mut key_rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut key_rng);
    let config = NodeConfig::default().with_max_round(16);
    let nodes: Vec<Recorder> = committee
        .members()
        .zip(keys.clone())
        .map(|(p, k)| Recorder {
            node: DagRiderNode::new(committee, p, k, config.clone()),
            log: Vec::new(),
        })
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), seed);
    sim.run();

    for p in committee.members() {
        let i = p.as_usize();
        let Recorder { node, log } = sim.actor(p);
        assert!(!node.ordered().is_empty());
        let mut fresh: DagRiderEngine<BrachaRbc> =
            DagRiderEngine::new(committee, p, keys[i].clone(), config.clone());
        // The simulator seeds each process's RNG from (seed, index); the
        // derivation is public exactly so replays can reproduce it.
        let mut fresh_rng = StdRng::seed_from_u64(process_seed(seed, i));
        let replayed = replay(&mut fresh, log, &mut fresh_rng);
        assert_eq!(&replayed, log, "{p}: adapter vs direct replay diverge");
        assert_eq!(ordered_log(&replayed), node.ordered(), "{p}: ordered logs diverge");
    }
}

#[test]
fn verified_and_unverified_routes_produce_identical_state() {
    // Restart replay feeds the coin shares a node accepted before its
    // crash as `EngineInput::PreVerified`, skipping the proof check it
    // already ran. Skipping re-verification must be a pure optimisation:
    // feeding the same wire traffic with every coin share on the
    // untrusted `Message` route and on the pre-verified route must leave
    // every engine in an identical state with an identical output
    // stream.
    let committee = Committee::new(4).unwrap();
    let mut key_rng = StdRng::seed_from_u64(29);
    let keys = deal_coin_keys(&committee, &mut key_rng);
    let config = NodeConfig::default().with_max_round(12);

    let run = |preverify: bool| {
        let mut engines: Vec<DagRiderEngine<BrachaRbc>> = committee
            .members()
            .zip(keys.clone())
            .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
            .collect();
        let mut rngs: Vec<StdRng> = (0..4).map(|i| StdRng::seed_from_u64(900 + i)).collect();
        let mut wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)> = VecDeque::new();
        let mut outputs: Vec<Vec<EngineOutput>> = vec![Vec::new(); 4];
        let mut route =
            |from: ProcessId,
             outs: Vec<EngineOutput>,
             wire: &mut VecDeque<(ProcessId, ProcessId, Vec<u8>)>| {
                for out in &outs {
                    match out {
                        EngineOutput::Send { to, payload } => {
                            wire.push_back((from, *to, payload.to_vec()));
                        }
                        EngineOutput::Broadcast { payload } => {
                            for to in committee.others(from) {
                                wire.push_back((from, to, payload.to_vec()));
                            }
                        }
                        EngineOutput::SetTimer { .. }
                        | EngineOutput::Ordered(_)
                        | EngineOutput::FetchBatches { .. } => {}
                    }
                }
                outputs[from.as_usize()].extend(outs);
            };
        for p in committee.members() {
            let outs = engines[p.as_usize()].start(Time::ZERO, &mut rngs[p.as_usize()]).outputs;
            route(p, outs, &mut wire);
        }
        let mut t = 0u64;
        while let Some((from, to, payload)) = wire.pop_front() {
            t += 1;
            // Coin shares from honest peers are known valid here; every
            // other message stays on the untrusted route.
            let input = match NodeMessage::<BrachaMessage>::from_bytes(&payload) {
                Ok(NodeMessage::Coin(share)) if preverify => {
                    EngineInput::PreVerified(VerifiedInput::CoinShare { from, share })
                }
                _ => EngineInput::Message { from, payload },
            };
            let outs = engines[to.as_usize()]
                .handle(Time::new(t), input, &mut rngs[to.as_usize()])
                .outputs;
            route(to, outs, &mut wire);
        }
        let ordered: Vec<_> = outputs.iter().map(ordered_in).collect();
        let decided: Vec<_> =
            committee.members().map(|p| engines[p.as_usize()].decided_wave()).collect();
        (outputs, ordered, decided)
    };

    let (unverified_out, unverified_ordered, unverified_decided) = run(false);
    let (verified_out, verified_ordered, verified_decided) = run(true);
    assert_eq!(unverified_out, verified_out, "output streams diverge between routes");
    assert_eq!(unverified_ordered, verified_ordered, "ordered logs diverge between routes");
    assert_eq!(unverified_decided, verified_decided, "decided waves diverge between routes");
    assert!(unverified_ordered.iter().all(|log| !log.is_empty()), "runs must make progress");
}

#[test]
fn degenerate_sparse_config_is_byte_identical_to_dense() {
    // Sparse-edge mode with k ≥ quorum is the documented degenerate case:
    // the sampler never removes an edge and the commit threshold is the
    // paper's 2f + 1, so a cluster configured that way must record a
    // byte-identical I/O stream — vertices, RBC traffic, coin shares,
    // ordered log — to a dense cluster under the same simulation seed.
    let run = |sparse: bool| {
        let committee = Committee::new(7).unwrap();
        let mut key_rng = StdRng::seed_from_u64(23);
        let keys = deal_coin_keys(&committee, &mut key_rng);
        let mut config = NodeConfig::default().with_max_round(16);
        if sparse {
            config = config.with_sparse_edges(committee.quorum(), 23);
        }
        let nodes: Vec<Recorder> = committee
            .members()
            .zip(keys)
            .map(|(p, k)| Recorder {
                node: DagRiderNode::new(committee, p, k, config.clone()),
                log: Vec::new(),
            })
            .collect();
        let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 23);
        sim.run();
        committee
            .members()
            .map(|p| (sim.actor(p).log.clone(), sim.actor(p).node.ordered().to_vec()))
            .collect::<Vec<_>>()
    };
    let (dense, sparse) = (run(false), run(true));
    assert_eq!(dense, sparse, "degenerate sparse mode must be byte-identical to dense");
    assert!(dense.iter().all(|(io, ordered)| !io.is_empty() && !ordered.is_empty()));
}

#[test]
fn two_identically_seeded_sim_runs_record_identical_io() {
    let run = || {
        let committee = Committee::new(4).unwrap();
        let mut key_rng = StdRng::seed_from_u64(13);
        let keys = deal_coin_keys(&committee, &mut key_rng);
        let config = NodeConfig::default().with_max_round(12).with_piggyback_coin();
        let nodes: Vec<Recorder> = committee
            .members()
            .zip(keys)
            .map(|(p, k)| Recorder {
                node: DagRiderNode::new(committee, p, k, config.clone()),
                log: Vec::new(),
            })
            .collect();
        let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 13);
        sim.run();
        committee.members().map(|p| sim.actor(p).log.clone()).collect::<Vec<_>>()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "identically seeded runs must record identical I/O");
    assert!(a.iter().all(|log| !log.is_empty()));
}

/// A [`DagRiderNode`] that folds every engine turn it takes into one
/// SHA-256 stream. A silent node never starts and ignores all input.
struct StreamHasher {
    node: DagRiderNode<BrachaRbc>,
    silent: bool,
    stream: Sha256,
    /// The highest garbage-collection floor this node reported so far.
    floor: Round,
    /// Broadcast deliveries of vertices whose round was already collected.
    late: u64,
}

impl StreamHasher {
    fn call(&mut self, input: Option<EngineInput>, ctx: &mut Context<'_>) {
        if self.silent {
            return;
        }
        let now = ctx.now();
        let engine = self.node.engine_mut();
        let turn = match input {
            None => engine.start(now, ctx.rng()),
            Some(input) => engine.handle(now, input, ctx.rng()),
        };
        for event in turn.events.iter().filter_map(EngineEvent::trace) {
            match event {
                TraceEvent::Pruned { floor, .. } => self.floor = self.floor.max(floor),
                TraceEvent::VertexRbcDelivered { vertex } if vertex.round < self.floor => {
                    self.late += 1;
                }
                _ => {}
            }
        }
        let mut buf = Vec::new();
        now.ticks().encode(&mut buf);
        encode_turn(&turn, &mut buf);
        self.stream.update(&buf);
        self.node.apply(turn, ctx);
    }
}

impl Actor for StreamHasher {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.call(None, ctx);
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        self.call(Some(EngineInput::Message { from, payload: payload.to_vec() }), ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        self.call(Some(EngineInput::Timer { tag }), ctx);
    }
}

/// Encodes a turn: each event's trace record and durable projection,
/// then each output.
fn encode_turn(turn: &Turn, buf: &mut Vec<u8>) {
    (turn.events.len() as u64).encode(buf);
    for event in &turn.events {
        event.trace().encode(buf);
        event.clone().into_durable().encode(buf);
    }
    (turn.outputs.len() as u64).encode(buf);
    for output in &turn.outputs {
        match output {
            EngineOutput::Send { to, payload } => {
                0u8.encode(buf);
                to.encode(buf);
                encode_bytes(payload, buf);
            }
            EngineOutput::Broadcast { payload } => {
                1u8.encode(buf);
                encode_bytes(payload, buf);
            }
            EngineOutput::SetTimer { delay, tag } => {
                2u8.encode(buf);
                delay.encode(buf);
                tag.encode(buf);
            }
            EngineOutput::Ordered(ordered) => {
                3u8.encode(buf);
                ordered.vertex.encode(buf);
                ordered.block.encode(buf);
                ordered.committed_in_wave.encode(buf);
                ordered.delivered_at.ticks().encode(buf);
            }
            EngineOutput::FetchBatches { from, digests } => {
                4u8.encode(buf);
                from.encode(buf);
                digests.encode(buf);
            }
        }
    }
}

/// What one golden run produced: the stream digest, the vertices
/// delivered by broadcast after their round was collected, and process
/// 0's decided wave.
struct GoldenRun {
    digest: String,
    late: u64,
    decided: u64,
}

/// Runs `n` processes for 400 rounds with `gc_depth(8)` and hashes every
/// turn of every process, in process order. Delays are uniform, except
/// that the last process is cut off for a while: everything it sends or
/// receives then takes 400 ticks, so its vertices of that stretch reach
/// the others after their rounds were collected. `silent` never starts.
fn golden_run(n: usize, config: NodeConfig, silent: Option<ProcessId>, seed: u64) -> GoldenRun {
    let committee = Committee::new(n).unwrap();
    let mut key_rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut key_rng);
    let config = config.with_max_round(400).with_gc_depth(8);
    let nodes: Vec<StreamHasher> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| StreamHasher {
            node: DagRiderNode::new(committee, p, k, config.clone()),
            silent: silent == Some(p),
            stream: Sha256::new(),
            floor: Round::GENESIS,
            late: 0,
        })
        .collect();
    let victim = ProcessId::new(n as u32 - 1);
    let scheduler = TargetedScheduler::new(UniformScheduler::new(1, 10), [victim], 400)
        .with_window(Time::new(500), Time::new(1500));
    let mut sim = Simulation::new(committee, nodes, scheduler, seed);
    sim.run();
    let mut all = Sha256::new();
    let mut late = 0;
    for p in committee.members() {
        let hasher = sim.actor(p);
        all.update(hasher.stream.clone().finalize().as_bytes());
        late += hasher.late;
    }
    let decided = sim.actor(ProcessId::new(0)).node.decided_wave().number();
    GoldenRun { digest: all.finalize().to_hex(), late, decided }
}

#[test]
fn gc_runs_match_their_recorded_stream_digests() {
    // The digests pin every turn of these runs: when the engine prunes,
    // what each prune drops, and every event and output around it. An
    // optimisation of the DAG store or of the GC pass leaves them as they
    // are.
    const PLAIN: &str = "376626b2ba5b5787197f756ad70437d5ef736c1a0d62a68b24950e69dc5b687a";
    const SILENT: &str = "557e270dd2f6923b01a15e7854e9bfbf64dab6c3afb549b4edc904e50255e123";
    const PIGGYBACK: &str = "4d97664f6f5ae81a10fdd592f0b61a0b88c97d0ccf0dca7149965c7b5a95d6a4";
    let cases = [
        ("plain", 4, NodeConfig::default(), None, 41, PLAIN),
        ("silent p2", 7, NodeConfig::default(), Some(ProcessId::new(2)), 42, SILENT),
        ("piggyback", 4, NodeConfig::default().with_piggyback_coin(), None, 43, PIGGYBACK),
    ];
    for (name, n, config, silent, seed, expected) in cases {
        let run = golden_run(n, config, silent, seed);
        assert!(run.decided >= 90, "{name}: decided only wave {}", run.decided);
        assert!(run.late > 0, "{name}: no vertex arrived below the GC floor");
        assert_eq!(run.digest, expected, "{name}: the turn stream changed");
    }
}
