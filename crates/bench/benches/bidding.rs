//! User-side bidding benches: the "lightweight computation" the paper
//! expects of bidding agents (Section III-D) — cooperative bid derivation
//! and per-round best responses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpr_core::bidding::{best_response, cooperative_bid};
use mpr_core::{BiddingAgent, NetGainAgent, Price, ScaledCost, Watts};

/// Rounds in one clearing's price trajectory, about the Gaia MPR-INT mean.
const ROUNDS: i32 = 30;

/// A damped tâtonnement trajectory: from the default opening price 0.5,
/// alternating around and settling on 0.7.
fn trajectory() -> Vec<f64> {
    (0..ROUNDS)
        .map(|k| 0.7 + (0.5 - 0.7) * (-0.6f64).powi(k))
        .collect()
}

fn bench_bidding(c: &mut Criterion) {
    let profile = mpr_apps::profile_by_name("XSBench").expect("catalog app");
    let cost = ScaledCost::new(profile.cost_model(1.0), 16.0);

    c.bench_function("cooperative_bid", |b| {
        b.iter(|| cooperative_bid(std::hint::black_box(&cost)).unwrap());
    });
    c.bench_function("best_response", |b| {
        b.iter(|| best_response(std::hint::black_box(&cost), Price::new(0.7)).unwrap());
    });

    // One agent over one clearing: the agent samples its cost curve at the
    // first price and answers the rest from the samples; the free function
    // samples afresh every round.
    let prices = trajectory();
    let mut group = c.benchmark_group("best_response_trajectory");
    group.bench_function(BenchmarkId::from_parameter("net-gain-agent"), |b| {
        b.iter(|| {
            let mut agent = NetGainAgent::new(0, &cost, Watts::new(10.0));
            prices
                .iter()
                .map(|&q| agent.respond(std::hint::black_box(q)).unwrap())
                .sum::<f64>()
        });
    });
    group.bench_function(BenchmarkId::from_parameter("best-response-x30"), |b| {
        b.iter(|| {
            prices
                .iter()
                .map(|&q| {
                    best_response(std::hint::black_box(&cost), Price::new(q))
                        .unwrap()
                        .bid
                })
                .sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_bidding);
criterion_main!(benches);
