//! Criterion benchmarks of the pipeline components: MST construction, conflict-graph
//! coloring, slot verification (fixed power and power control) and the end-to-end
//! solver, as a function of the instance size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wagg_conflict::{greedy_color, ConflictGraph, ConflictRelation};
use wagg_core::{AggregationProblem, Backend, PowerMode, Session};
use wagg_instances::random::{clustered, uniform_square};
use wagg_mst::euclidean_mst;
use wagg_schedule::SchedulerConfig;
use wagg_sinr::power_control::is_feasible_with_power_control;
use wagg_sinr::{PowerAssignment, SinrModel};

const SIZES: [usize; 3] = [32, 64, 128];

fn bench_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("euclidean_mst");
    for &n in &SIZES {
        let inst = uniform_square(n, 500.0, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| euclidean_mst(&inst.points).unwrap().edges().len())
        });
    }
    // The benchmark's aggregate_mst deployment shape: 100 clusters of 100 nodes,
    // high length diversity.
    let inst = clustered(100, 100, 100_000.0, 1.0, 7);
    group.bench_with_input(
        BenchmarkId::new("clustered", inst.points.len()),
        &inst,
        |b, inst| b.iter(|| euclidean_mst(&inst.points).unwrap().edges().len()),
    );
    group.finish();
}

fn bench_conflict_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_graph_coloring");
    for &n in &SIZES {
        let links = uniform_square(n, 500.0, n as u64).mst_links().unwrap();
        for (label, relation) in [
            ("g1", ConflictRelation::unit_constant()),
            ("gobl", ConflictRelation::oblivious_default()),
            ("garb", ConflictRelation::arbitrary_default()),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &links, |b, links| {
                b.iter(|| {
                    let graph = ConflictGraph::build(links, relation);
                    greedy_color(&graph).num_colors()
                })
            });
        }
    }
    group.finish();
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_feasibility");
    let model = SinrModel::default();
    for &n in &[8usize, 16, 32] {
        // A well-spread slot of n unit links.
        let links: Vec<_> = (0..n)
            .map(|i| {
                wagg_sinr::Link::new(
                    i,
                    wagg_geometry::Point::new(10.0 * i as f64, 0.0),
                    wagg_geometry::Point::new(10.0 * i as f64 + 1.0, 0.0),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("fixed_power", n), &links, |b, links| {
            let power = PowerAssignment::mean();
            b.iter(|| model.is_feasible(links, &power))
        });
        group.bench_with_input(BenchmarkId::new("power_control", n), &links, |b, links| {
            b.iter(|| is_feasible_with_power_control(&model, links))
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_solver");
    group.sample_size(10);
    for &n in &SIZES {
        let inst = uniform_square(n, 500.0, n as u64);
        for mode in [PowerMode::Oblivious { tau: 0.5 }, PowerMode::GlobalControl] {
            group.bench_with_input(BenchmarkId::new(format!("{mode}"), n), &inst, |b, inst| {
                b.iter(|| {
                    AggregationProblem::from_instance(inst)
                        .with_power_mode(mode)
                        .solve()
                        .unwrap()
                        .slots()
                })
            });
        }
    }
    group.finish();
}

fn bench_schedule_links_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_links");
    group.sample_size(10);
    for &n in &SIZES {
        let links = uniform_square(n, 500.0, n as u64).mst_links().unwrap();
        let session = std::cell::RefCell::new(
            Session::builder()
                .scheduler(SchedulerConfig::new(PowerMode::GlobalControl))
                .backend(Backend::Static)
                .links(&links)
                .build(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &session, |b, session| {
            b.iter(|| session.borrow_mut().solve().slots())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mst,
    bench_conflict_coloring,
    bench_feasibility,
    bench_end_to_end,
    bench_schedule_links_only
);
criterion_main!(benches);
