//! Two traced runs with the same seed count the same work, and the metric
//! catalogue matches `BENCHMARK.json`.
//!
//! Runs every workload at a reduced scale: the code paths are the
//! benchmark's own, only the instances are smaller.

use wagg_perfbench::{run, Outcome, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};

const SMALL: Scale = Scale {
    deployments: 2,
    clusters: 10,
    per_cluster: 20,
    side: 10_000.0,
    cluster_radius: 1.0,
    cold_links: 4_000,
    shards: 4,
    churn_links: 2_000,
    churn_rate: 200.0,
    replay_ops: 40,
    min_requests: 1,
};

/// Seeded counts that must repeat exactly. Scheduler-dependent service
/// gauges (queue depth, busy refusals) and every timing are left out.
const DETERMINISTIC: &[&str] = &[
    "slots",
    "conflict.edges",
    "static.verified_slots",
    "verifier.expansions",
    "verifier.exact_fallbacks",
    "partition.ghost_copies",
    "partition.owned_max",
    "snapshot.frame_mb",
];

fn traced(workload: Workload, seed: u64) -> Outcome {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace: true,
        scale: SMALL,
        trace_dir: None,
    })
}

#[test]
fn traced_runs_with_one_seed_count_the_same_work() {
    for workload in Workload::ALL {
        let a = traced(workload, 7);
        let b = traced(workload, 7);
        for outcome in [&a, &b] {
            assert!(
                outcome.problems.is_empty(),
                "{}: {:?}",
                workload.name(),
                outcome.problems
            );
            assert!(outcome.attempted > 0 && outcome.failed == 0);
        }
        for name in DETERMINISTIC {
            assert_eq!(a.get(name), b.get(name), "{}: {name}", workload.name());
        }
        // Per-session repair.* and engine.* counters (and the rest of the
        // recorder counters), session by session.
        assert!(!a.session_counters.is_empty(), "{}", workload.name());
        assert_eq!(
            a.session_counters,
            b.session_counters,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn workloads_exercise_their_layers() {
    let aggregate = traced(Workload::AggregateMst, 3);
    assert!(aggregate.get("static.verified_slots") > Some(0.0));
    assert!(aggregate.get("conflict.edges") > Some(0.0));

    let cold = traced(Workload::ColdSharded, 3);
    assert!(cold.get("partition.owned_max") > Some(0.0));
    assert!(cold.get("snapshot.frame_mb") > Some(0.0));
    assert_eq!(cold.get("repair.warm_recaptured"), Some(1.0));

    let churn = traced(Workload::ChurnService, 3);
    let ops = (SMALL.replay_ops * wagg_perfbench::churn::CLIENTS) as f64;
    assert_eq!(churn.get("repair.dirty"), Some(ops));
    assert!(churn.get("engine.rows_recomputed") >= Some(ops));
    assert!(churn.get("service.handle_solve_us") > Some(0.0));
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entry = |name: &str, unit: &str| format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(text.contains(&entry(name, unit)), "{name} ({unit}) missing");
    }
    let listed = text.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
