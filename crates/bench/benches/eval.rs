//! Naive-evaluation throughput across semirings (the engine substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog::programs;
use graphgen::generators;
use semiring::prelude::*;

fn bench_eval_semirings(c: &mut Criterion) {
    let g = generators::gnm(24, 96, &["E"], 5);
    let (_, _, gp) = bench::ground_on_graph(&programs::transitive_closure(), &g);
    let budget = datalog::default_budget(&gp);
    let mut group = c.benchmark_group("eval/tc_gnm24");

    group.bench_function("boolean", |b| {
        b.iter(|| datalog::naive_eval::<Bool, _>(&gp, &AllOnes, budget))
    });
    group.bench_function("tropical", |b| {
        b.iter(|| {
            datalog::naive_eval::<Tropical, _>(
                &gp,
                &from_fn(|f| Tropical::new(f as u64 % 7 + 1)),
                budget,
            )
        })
    });
    group.bench_function("fuzzy", |b| {
        b.iter(|| {
            datalog::naive_eval::<Fuzzy, _>(
                &gp,
                &from_fn(|f| Fuzzy::new((f % 10) as f64 / 10.0)),
                budget,
            )
        })
    });
    group.bench_function("viterbi", |b| {
        b.iter(|| {
            datalog::naive_eval::<Viterbi, _>(
                &gp,
                &from_fn(|f| Viterbi::new(0.5 + (f % 5) as f64 / 10.0)),
                budget,
            )
        })
    });
    group.bench_function("trop3", |b| {
        b.iter(|| {
            datalog::naive_eval::<TropK<3>, _>(
                &gp,
                &from_fn(|f| TropK::single(f as u64 % 7 + 1)),
                budget,
            )
        })
    });
    group.finish();
}

fn bench_eval_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval/tc_scaling_boolean");
    for n in [12usize, 24, 48] {
        let g = generators::gnm(n, 4 * n, &["E"], 5);
        let (_, _, gp) = bench::ground_on_graph(&programs::transitive_closure(), &g);
        let budget = datalog::default_budget(&gp);
        group.bench_with_input(BenchmarkId::from_parameter(n), &gp, |b, gp| {
            b.iter(|| datalog::naive_eval::<Bool, _>(gp, &AllOnes, budget))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval_semirings, bench_eval_scaling);
criterion_main!(benches);
