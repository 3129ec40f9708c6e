//! Criterion benchmarks of the three reliable-broadcast instantiations:
//! CPU cost of driving one broadcast from `r_bcast` to delivery at every
//! process (synchronous drain — network time excluded, message processing
//! included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dagrider_rbc::{AvidRbc, BrachaRbc, ProbabilisticRbc, RbcAction, ReliableBroadcast};
use dagrider_types::{Committee, ProcessId, Round};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;

/// Drives one broadcast to quiescence; returns deliveries observed.
fn drain<B: ReliableBroadcast>(n: usize, payload: &[u8], round: u64) -> usize {
    let committee = Committee::new(n).unwrap();
    let mut endpoints: Vec<B> = committee.members().map(|p| B::new(committee, p)).collect();
    let mut rng = StdRng::seed_from_u64(round);
    let mut deliveries = 0usize;
    let actions = endpoints[0].rbcast(payload.to_vec(), Round::new(round), &mut rng);
    let mut queue: VecDeque<(ProcessId, RbcAction<B::Message>)> =
        actions.into_iter().map(|a| (ProcessId::new(0), a)).collect();
    while let Some((actor, action)) = queue.pop_front() {
        match action {
            RbcAction::Send(to, m) => {
                for a in endpoints[to.as_usize()].on_message(actor, m, &mut rng) {
                    queue.push_back((to, a));
                }
            }
            RbcAction::Deliver(_) => deliveries += 1,
            RbcAction::Phase(..) => {}
        }
    }
    deliveries
}

fn bench_rbc(c: &mut Criterion) {
    let payload = vec![0x7eu8; 2048];
    let mut group = c.benchmark_group("rbc_broadcast_to_all/2KiB");
    for n in [4usize, 7, 10] {
        group.bench_with_input(BenchmarkId::new("bracha", n), &n, |b, &n| {
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                black_box(drain::<BrachaRbc>(n, &payload, round))
            });
        });
        group.bench_with_input(BenchmarkId::new("avid", n), &n, |b, &n| {
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                black_box(drain::<AvidRbc>(n, &payload, round))
            });
        });
        group.bench_with_input(BenchmarkId::new("probabilistic", n), &n, |b, &n| {
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                black_box(drain::<ProbabilisticRbc>(n, &payload, round))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rbc);
criterion_main!(benches);
